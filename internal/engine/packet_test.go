package engine_test

import (
	"math/rand"
	"slices"
	"testing"

	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
)

// randomRules generates n five-tuple rules with overlapping fields (short
// prefixes, wide port ranges, wildcard protocols), best-first: the rule at
// index i carries priority i.
func randomRules(rng *rand.Rand, n int) []fivetuple.Rule {
	protos := []uint8{fivetuple.ProtoTCP, fivetuple.ProtoUDP, fivetuple.ProtoICMP}
	out := make([]fivetuple.Rule, 0, n)
	for i := 0; i < n; i++ {
		r := fivetuple.Wildcard(i, fivetuple.ActionForward)
		r.ActionArg = uint32(i + 1)
		if rng.Intn(8) > 0 {
			r.SrcPrefix = fivetuple.Prefix{Addr: fivetuple.IPv4(rng.Uint32()), Len: uint8(rng.Intn(25))}.Canonical()
		}
		if rng.Intn(8) > 0 {
			r.DstPrefix = fivetuple.Prefix{Addr: fivetuple.IPv4(rng.Uint32()), Len: uint8(rng.Intn(25))}.Canonical()
		}
		if rng.Intn(2) == 0 {
			lo := uint16(rng.Intn(1024))
			r.SrcPort = fivetuple.PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(4096))}
		}
		if rng.Intn(2) == 0 {
			lo := uint16(rng.Intn(1024))
			r.DstPort = fivetuple.PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(4096))}
		}
		if rng.Intn(3) > 0 {
			r.Protocol = fivetuple.ExactProtocol(protos[rng.Intn(len(protos))])
		}
		out = append(out, r)
	}
	return out
}

// probeHeaders mixes headers drawn from the rules (guaranteed interesting)
// with uniformly random ones.
func probeHeaders(rng *rand.Rand, rules []fivetuple.Rule, n int) []fivetuple.Header {
	protos := []uint8{fivetuple.ProtoTCP, fivetuple.ProtoUDP, fivetuple.ProtoICMP, fivetuple.ProtoGRE}
	out := make([]fivetuple.Header, 0, n)
	for i := 0; i < n; i++ {
		h := fivetuple.Header{
			SrcIP:    fivetuple.IPv4(rng.Uint32()),
			DstIP:    fivetuple.IPv4(rng.Uint32()),
			SrcPort:  uint16(rng.Intn(1 << 16)),
			DstPort:  uint16(rng.Intn(1 << 16)),
			Protocol: protos[rng.Intn(len(protos))],
		}
		if len(rules) > 0 && i%2 == 0 {
			r := rules[rng.Intn(len(rules))]
			h.SrcIP = r.SrcPrefix.Addr | fivetuple.IPv4(rng.Uint32()&^uint32(r.SrcPrefix.Mask()))
			h.DstIP = r.DstPrefix.Addr | fivetuple.IPv4(rng.Uint32()&^uint32(r.DstPrefix.Mask()))
			h.SrcPort = r.SrcPort.Lo
			h.DstPort = r.DstPort.Hi
			if !r.Protocol.IsWildcard() {
				h.Protocol = r.Protocol.Value
			}
		}
		out = append(out, h)
	}
	return out
}

// checkPacketOracle replays headers against the engine and the linear
// reference classifier, requiring exact HPMR agreement.
func checkPacketOracle(t *testing.T, phase string, eng engine.PacketEngine, rules []fivetuple.Rule, headers []fivetuple.Header) {
	t.Helper()
	oracle := fivetuple.NewRuleSet("oracle", rules)
	for _, h := range headers {
		wantIdx, wantOK := oracle.Classify(h)
		gotIdx, gotOK, accesses := eng.LookupPacket(h)
		if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
			t.Fatalf("%s: LookupPacket(%s) = (%d, %v), oracle (%d, %v)", phase, h, gotIdx, gotOK, wantIdx, wantOK)
		}
		if gotOK && eng.Verdict(gotIdx) != rules[wantIdx].Verdict() {
			t.Fatalf("%s: Verdict(%d) = %+v, installed %s", phase, gotIdx, eng.Verdict(gotIdx), rules[wantIdx])
		}
		if len(rules) > 0 && accesses < 1 {
			t.Fatalf("%s: LookupPacket(%s) reported %d accesses", phase, h, accesses)
		}
	}
}

// TestPacketEngineConformance runs every registered whole-packet engine
// through a shared suite: install/lookup agreement with the linear reference
// classifier, re-install (the tier's update primitive), and drain-to-empty.
func TestPacketEngineConformance(t *testing.T) {
	names := engine.PacketEngineNames()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 registered packet engines, got %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatalf("NewPacket(%s): %v", name, err)
			}
			rng := rand.New(rand.NewSource(11))

			rulesA := randomRules(rng, 150)
			if err := eng.Install(rulesA); err != nil {
				t.Fatalf("Install: %v", err)
			}
			checkPacketOracle(t, "after install", eng, rulesA, probeHeaders(rng, rulesA, 800))
			if fp := eng.Footprint(); fp.NodeBits <= 0 {
				t.Errorf("installed engine reports %d node bits, want > 0", fp.NodeBits)
			}

			// Re-install over a different set: the tier's update primitive is
			// a full rebuild, and the old rules must be gone.
			rulesB := randomRules(rng, 60)
			if err := eng.Install(rulesB); err != nil {
				t.Fatalf("re-Install: %v", err)
			}
			checkPacketOracle(t, "after re-install", eng, rulesB, probeHeaders(rng, rulesB, 800))

			if err := eng.Install(nil); err != nil {
				t.Fatalf("Install(nil): %v", err)
			}
			for _, h := range probeHeaders(rng, nil, 100) {
				if _, ok, _ := eng.LookupPacket(h); ok {
					t.Fatalf("empty engine matched %s", h)
				}
			}
			if fp := eng.Footprint(); fp.NodeBits != 0 {
				t.Errorf("empty engine reports %d node bits, want 0", fp.NodeBits)
			}
		})
	}
}

// TestPacketEngineCloneIndependence verifies the Clone contract the
// classifier's clone-mutate-swap update path depends on: after cloning,
// re-installing through either handle is never observable through the other.
func TestPacketEngineCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, name := range engine.PacketEngineNames() {
		t.Run(name, func(t *testing.T) {
			eng, err := engine.NewPacket(name, engine.Spec{})
			if err != nil {
				t.Fatalf("NewPacket(%s): %v", name, err)
			}
			rulesA := randomRules(rng, 80)
			if err := eng.Install(rulesA); err != nil {
				t.Fatalf("Install: %v", err)
			}
			clone := eng.Clone()
			headers := probeHeaders(rng, rulesA, 400)

			// Rebuild the original over a different set; the clone must keep
			// answering for the original installation.
			rulesB := randomRules(rng, 40)
			if err := eng.Install(rulesB); err != nil {
				t.Fatalf("Install on original: %v", err)
			}
			checkPacketOracle(t, "clone after original rebuilt", clone, rulesA, headers)
			checkPacketOracle(t, "original after rebuild", eng, rulesB, probeHeaders(rng, rulesB, 400))

			// And the reverse: rebuilding the clone must not disturb the
			// original.
			if err := clone.Install(nil); err != nil {
				t.Fatalf("Install(nil) on clone: %v", err)
			}
			checkPacketOracle(t, "original after clone drained", eng, rulesB, probeHeaders(rng, rulesB, 400))
		})
	}
}

// TestPacketEngineCostModels checks that every packet engine publishes a
// sane cost model before and after install.
func TestPacketEngineCostModels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rules := randomRules(rng, 100)
	for _, name := range engine.PacketEngineNames() {
		eng, err := engine.NewPacket(name, engine.Spec{})
		if err != nil {
			t.Fatalf("NewPacket(%s): %v", name, err)
		}
		for _, phase := range []string{"empty", "installed"} {
			cost := eng.Cost()
			if cost.LookupCycles < 1 || cost.InitiationInterval < 1 || cost.WorstCaseAccesses < 1 {
				t.Errorf("%s (%s): implausible cost model %+v", name, phase, cost)
			}
			if cost.InitiationInterval > cost.LookupCycles {
				t.Errorf("%s (%s): initiation interval %d exceeds latency %d",
					name, phase, cost.InitiationInterval, cost.LookupCycles)
			}
			if phase == "empty" {
				if err := eng.Install(rules); err != nil {
					t.Fatalf("Install: %v", err)
				}
			}
		}
	}
}

// TestPacketRegistryTiering checks the two tiers stay distinct in the shared
// registry.
func TestPacketRegistryTiering(t *testing.T) {
	for _, want := range []string{"rfc-full", "dcfl", "hypercuts"} {
		def, ok := engine.Get(want)
		if !ok {
			t.Errorf("packet engine %q not registered", want)
			continue
		}
		if def.PacketFactory == nil || def.Factory != nil {
			t.Errorf("%q should be a packet-tier definition", want)
		}
		for _, ip := range engine.IPEngineNames() {
			if ip == want {
				t.Errorf("%q must not be listed as an IP field engine", want)
			}
		}
	}
	incremental := engine.IncrementalPacketEngineNames()
	for _, want := range []string{"dcfl", "hypercuts"} {
		if !slices.Contains(incremental, want) {
			t.Errorf("IncrementalPacketEngineNames() = %v, want at least dcfl and hypercuts", incremental)
		}
	}
	if _, err := engine.NewPacket("mbt", engine.Spec{}); err == nil {
		t.Error("building a field engine through NewPacket should fail")
	}
	if _, err := engine.NewPacket("no-such-engine", engine.Spec{}); err == nil {
		t.Error("building an unknown packet engine should fail")
	}
	if err := engine.Register(engine.Definition{
		Name:          "x-both-tiers",
		Factory:       func(engine.Spec) (engine.FieldEngine, error) { return nil, nil },
		PacketFactory: func(engine.Spec) (engine.PacketEngine, error) { return nil, nil },
	}); err == nil {
		t.Error("registering both factories should fail")
	}

	selectable := make(map[string]bool)
	for _, name := range engine.SelectableNames() {
		selectable[name] = true
	}
	for _, name := range append(engine.IPEngineNames(), engine.PacketEngineNames()...) {
		if !selectable[name] {
			t.Errorf("%q missing from SelectableNames", name)
		}
	}
	for _, notSelectable := range []string{"portreg", "lut"} {
		if selectable[notSelectable] {
			t.Errorf("%q should not be selectable", notSelectable)
		}
	}
}
