// Package dataplane implements the SDN data plane: a software switch whose
// flow classification is performed by the configurable architecture of
// internal/core.
//
// The switch dials the controller's control channel, applies the flow and
// configuration updates it receives (flow add/delete, IPalg_s selection) and
// classifies packets locally. Packets whose matching rule's action is
// "controller" — and packets matching no rule at all — are punted to the
// controller as packet-in messages, mirroring the OpenFlow table-miss
// behaviour the paper's Fig. 1/Fig. 2 structure implies.
package dataplane

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"sdnpc/internal/core"
	"sdnpc/internal/engine"
	"sdnpc/internal/fivetuple"
	"sdnpc/internal/sdn/openflow"
)

// Verdict is the outcome of processing one packet.
type Verdict struct {
	// Matched reports whether a rule matched the packet.
	Matched bool
	// Action is the applied action (ActionDrop for a table miss).
	Action fivetuple.Action
	// EgressPort is the forwarding port for ActionForward/ActionModify.
	EgressPort uint32
	// RulePriority is the priority of the matched rule.
	RulePriority int
	// PuntedToController reports whether a packet-in was sent.
	PuntedToController bool
}

// Counters accumulates per-action packet counts.
type Counters struct {
	Total      uint64
	Forwarded  uint64
	Dropped    uint64
	Modified   uint64
	Grouped    uint64
	Punted     uint64
	TableMiss  uint64
	FlowAdds   uint64
	FlowDels   uint64
	AlgChanges uint64
}

// Switch is a software SDN switch built around the configurable classifier.
type Switch struct {
	mu         sync.Mutex
	classifier *core.Classifier
	conn       net.Conn
	counters   Counters
	closed     bool
	done       chan struct{}

	// mods feeds queued flow updates (and flush barriers) from the control
	// loop to the applier goroutine, which coalesces consecutive flow-mods
	// into one core.ApplyUpdates batch — one snapshot clone+swap per batch
	// instead of per rule, which is what keeps a full-table download linear.
	mods        chan applierMsg
	applierDone chan struct{}

	// writeMu serialises control-channel writes issued by the packet path and
	// by the control loop.
	writeMu sync.Mutex
}

// writeMessage sends one control message, serialising concurrent writers.
func (s *Switch) writeMessage(conn net.Conn, m openflow.Message) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return openflow.Write(conn, m)
}

// New creates a switch with a freshly configured classifier.
func New(cfg core.Config) (*Switch, error) {
	classifier, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("dataplane: %w", err)
	}
	return &Switch{
		classifier:  classifier,
		done:        make(chan struct{}),
		mods:        make(chan applierMsg, 1024),
		applierDone: make(chan struct{}),
	}, nil
}

// flowMod is one queued flow update from the control channel.
type flowMod struct {
	add  bool
	rule fivetuple.Rule
	xid  uint32
}

// applierMsg carries either a flow-mod or a flush barrier to the applier.
type applierMsg struct {
	mod   *flowMod
	flush chan struct{}
}

// Classifier exposes the embedded classifier for reporting.
func (s *Switch) Classifier() *core.Classifier { return s.classifier }

// Counters returns a snapshot of the packet counters.
func (s *Switch) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// ErrNotConnected is returned when a packet must be punted but no control
// channel is up.
var ErrNotConnected = errors.New("dataplane: not connected to a controller")

// Connect dials the controller and starts processing control messages in a
// background goroutine. It returns once the connection is established.
func (s *Switch) Connect(address string) error {
	conn, err := net.Dial("tcp", address)
	if err != nil {
		return fmt.Errorf("dataplane: connecting to controller: %w", err)
	}
	return s.Run(conn)
}

// Run attaches the switch to an established control connection and starts
// the message-processing goroutine.
func (s *Switch) Run(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dataplane: switch closed")
	}
	if s.conn != nil {
		s.mu.Unlock()
		return errors.New("dataplane: already connected")
	}
	s.conn = conn
	s.mu.Unlock()

	if err := s.writeMessage(conn, openflow.Message{Type: openflow.TypeHello}); err != nil {
		// Detach the failed connection: the control loop and applier never
		// started, so leaving conn set would make a later Close wait forever
		// for a done signal nobody will send.
		s.mu.Lock()
		s.conn = nil
		s.mu.Unlock()
		return fmt.Errorf("dataplane: hello: %w", err)
	}
	go s.applier(conn)
	go s.controlLoop(conn)
	return nil
}

// Close shuts the control channel down and stops the control loop.
func (s *Switch) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
		<-s.done
	}
}

// controlLoop applies controller messages until the connection drops.
// Flow updates are queued to the applier; configuration changes and
// barriers flush the queue first so the classifier always observes control
// messages in channel order.
func (s *Switch) controlLoop(conn net.Conn) {
	defer func() {
		close(s.mods)
		<-s.applierDone
		close(s.done)
	}()
	for {
		msg, err := openflow.Read(conn)
		if err != nil {
			return
		}
		switch msg.Type {
		case openflow.TypeHello:
			// Connection is up; nothing else to do.
		case openflow.TypeFlowAdd, openflow.TypeFlowDelete:
			mod, err := openflow.UnmarshalFlowMod(msg.Body)
			if err != nil {
				s.sendError(conn, msg.Xid, err)
				continue
			}
			s.mods <- applierMsg{mod: &flowMod{
				add: msg.Type == openflow.TypeFlowAdd, rule: mod.Rule, xid: msg.Xid,
			}}
		case openflow.TypeSetAlgorithm:
			alg, err := openflow.UnmarshalSetAlgorithm(msg.Body)
			if err != nil {
				s.sendError(conn, msg.Xid, err)
				continue
			}
			s.flushMods()
			name, ok := engine.LegacyName(alg)
			if !ok {
				s.sendError(conn, msg.Xid, fmt.Errorf("dataplane: unknown IP algorithm selection %v", alg))
				continue
			}
			// The classifier synchronises its own writers; holding s.mu
			// across the rule replay would stall every serving worker at
			// the counter fold for the whole re-programming.
			if err = s.classifier.SelectEngine(name); err != nil {
				s.sendError(conn, msg.Xid, err)
				continue
			}
			s.mu.Lock()
			s.counters.AlgChanges++
			s.mu.Unlock()
		case openflow.TypeSetEngine:
			name, err := openflow.UnmarshalSetEngine(msg.Body)
			if err != nil {
				s.sendError(conn, msg.Xid, err)
				continue
			}
			s.flushMods()
			// SelectEngine resolves the name across both tiers: a field
			// engine switches the IP-segment dimensions, a whole-packet
			// engine switches the running switch onto the packet tier.
			if err = s.classifier.SelectEngine(name); err != nil {
				s.sendError(conn, msg.Xid, err)
				continue
			}
			s.mu.Lock()
			s.counters.AlgChanges++
			s.mu.Unlock()
		case openflow.TypeBarrierRequest:
			s.flushMods()
			_ = s.writeMessage(conn, openflow.Message{Type: openflow.TypeBarrierReply, Xid: msg.Xid})
		default:
			// Ignore unknown messages.
		}
	}
}

// flushMods blocks until every flow update queued so far has been applied.
func (s *Switch) flushMods() {
	ch := make(chan struct{})
	s.mods <- applierMsg{flush: ch}
	<-ch
}

// applier drains the flow-update queue, applying consecutive flow-mods as
// one batched snapshot swap. A flush barrier completes only after every
// update queued before it has been applied.
func (s *Switch) applier(conn net.Conn) {
	defer close(s.applierDone)
	const maxBatch = 512
	pending := make([]flowMod, 0, maxBatch)
	var flushes []chan struct{}
	apply := func() {
		if len(pending) > 0 {
			s.applyFlowBatch(conn, pending)
			pending = pending[:0]
		}
		for _, ch := range flushes {
			close(ch)
		}
		flushes = flushes[:0]
	}
	for msg := range s.mods {
		if msg.mod != nil {
			pending = append(pending, *msg.mod)
		}
		if msg.flush != nil {
			flushes = append(flushes, msg.flush)
		}
		// Opportunistically drain whatever else is already queued so a
		// streamed rule download coalesces into few snapshot swaps.
		draining := msg.flush == nil && len(pending) < maxBatch
		for draining {
			select {
			case m, ok := <-s.mods:
				if !ok {
					draining = false
					break
				}
				if m.mod != nil {
					pending = append(pending, *m.mod)
				}
				if m.flush != nil {
					flushes = append(flushes, m.flush)
					draining = false
				}
				if len(pending) >= maxBatch {
					draining = false
				}
			default:
				draining = false
			}
		}
		apply()
	}
	apply()
}

// applyFlowBatch applies one batch of flow updates through the
// classifier's batched update path and reports per-update failures back on
// the control channel.
func (s *Switch) applyFlowBatch(conn net.Conn, mods []flowMod) {
	ops := make([]core.UpdateOp, len(mods))
	for i, m := range mods {
		ops[i] = core.UpdateOp{Delete: !m.add, Rule: m.rule}
	}
	_, errs, err := s.classifier.ApplyUpdates(ops)
	if err != nil {
		for _, m := range mods {
			s.sendError(conn, m.xid, err)
		}
		return
	}
	var adds, dels uint64
	for i, m := range mods {
		if errs[i] != nil {
			s.sendError(conn, m.xid, errs[i])
			continue
		}
		if m.add {
			adds++
		} else {
			dels++
		}
	}
	s.mu.Lock()
	s.counters.FlowAdds += adds
	s.counters.FlowDels += dels
	s.mu.Unlock()
}

func (s *Switch) sendError(conn net.Conn, xid uint32, err error) {
	_ = s.writeMessage(conn, openflow.Message{
		Type: openflow.TypeError, Xid: xid,
		Body: openflow.MarshalError(err.Error()),
	})
}

// ProcessPacket classifies one packet header and applies the resulting
// action. Table misses and rules with the controller action punt the header
// to the controller when a control channel is connected.
//
// The classification itself runs outside the switch mutex — the classifier
// serves lookups lock-free from its published snapshot — so any number of
// goroutines can process packets concurrently with control-plane updates;
// the mutex only guards the packet counters and the connection handle.
func (s *Switch) ProcessPacket(h fivetuple.Header) (Verdict, error) {
	result := s.classifier.Lookup(h)
	verdict, punt := buildVerdict(result)

	s.mu.Lock()
	conn := s.conn
	s.countVerdict(result, punt && conn != nil)
	s.mu.Unlock()

	if !punt {
		return verdict, nil
	}
	if conn == nil {
		return verdict, ErrNotConnected
	}
	priority := uint32(0)
	if result.Matched {
		priority = uint32(result.Priority)
	}
	err := s.writeMessage(conn, openflow.Message{
		Type: openflow.TypePacketIn,
		Body: openflow.MarshalPacketIn(openflow.PacketIn{Header: h, RulePriority: priority}),
	})
	if err != nil {
		return verdict, fmt.Errorf("dataplane: packet-in: %w", err)
	}
	verdict.PuntedToController = true
	return verdict, nil
}

// buildVerdict maps one classification result to its verdict and reports
// whether the packet needs punting to the controller. Shared by the single
// and batched serving paths so the two can never drift.
func buildVerdict(result core.Result) (Verdict, bool) {
	v := Verdict{Matched: result.Matched}
	if !result.Matched {
		v.Action = fivetuple.ActionDrop
		return v, true
	}
	v.Action = result.Action
	v.RulePriority = result.Priority
	v.EgressPort = result.ActionArg
	return v, result.Action == fivetuple.ActionController
}

// countVerdict folds one classification result into the packet counters.
// The caller holds s.mu; punted reports whether a packet-in will be sent.
func (s *Switch) countVerdict(result core.Result, punted bool) {
	s.counters.Total++
	if !result.Matched {
		s.counters.TableMiss++
	} else {
		switch result.Action {
		case fivetuple.ActionForward:
			s.counters.Forwarded++
		case fivetuple.ActionDrop:
			s.counters.Dropped++
		case fivetuple.ActionModify:
			s.counters.Modified++
		case fivetuple.ActionGroup:
			s.counters.Grouped++
		}
	}
	if punted {
		s.counters.Punted++
	}
}

// ProcessBatch classifies a batch of packet headers against one consistent
// snapshot of the rule set (see core.LookupBatch) and applies the per-packet
// actions. Packets that need punting are sent as individual packet-in
// messages after classification; the counters are folded in under one lock
// acquisition for the whole batch. A nil error is returned when every punt
// succeeded (or nothing needed punting).
func (s *Switch) ProcessBatch(hs []fivetuple.Header) ([]Verdict, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	results := s.classifier.LookupBatch(hs)
	verdicts := make([]Verdict, len(results))
	punts := make([]bool, len(results))
	for i, result := range results {
		verdicts[i], punts[i] = buildVerdict(result)
	}

	s.mu.Lock()
	conn := s.conn
	for i, result := range results {
		s.countVerdict(result, punts[i] && conn != nil)
	}
	s.mu.Unlock()

	var firstErr error
	for i, punt := range punts {
		if !punt {
			continue
		}
		if conn == nil {
			if firstErr == nil {
				firstErr = ErrNotConnected
			}
			continue
		}
		priority := uint32(0)
		if results[i].Matched {
			priority = uint32(results[i].Priority)
		}
		if err := s.writeMessage(conn, openflow.Message{
			Type: openflow.TypePacketIn,
			Body: openflow.MarshalPacketIn(openflow.PacketIn{Header: hs[i], RulePriority: priority}),
		}); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dataplane: packet-in: %w", err)
			}
			continue
		}
		verdicts[i].PuntedToController = true
	}
	return verdicts, firstErr
}
