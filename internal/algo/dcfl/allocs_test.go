package dcfl

import (
	"runtime"
	"testing"

	"sdnpc/internal/classbench"
)

// deltaAllocs returns what one delta on a fresh clone allocates — the way
// the classifier applies one: the tables are cloned before every op —
// averaged over delete+insert pairs of acl-1k rules.
func deltaAllocs(t *testing.T) (objects, kib float64) {
	t.Helper()
	rs := classbench.Generate(classbench.StandardConfig(classbench.ACL, classbench.Size1K))
	c, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	pair := func() {
		idx := i % (rs.Len() - 1)
		i += 37
		c = c.Clone()
		if err := c.DeleteAt(idx); err != nil {
			t.Fatal(err)
		}
		c = c.Clone()
		if err := c.InsertAt(rs.Rule(idx), idx); err != nil {
			t.Fatal(err)
		}
	}
	objects = testing.AllocsPerRun(20, pair) / 2
	const pairs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range pairs {
		pair()
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / (2 * pairs) / 1024
}

// TestDeltaAllocs bounds what a delta on a fresh clone allocates on acl-1k:
// the classifier header, one set chunk and one set directory per aggregation
// node and, for an insert, one 2.5 KiB record chunk (64 packed 40-byte
// records) and the record directory — 8.4 KiB and 10 objects; the bounds
// sit about 25 % above. While the store held 112-byte rules, a 7 KiB chunk:
// 11.1 KiB. While a delta also copied the id → position map (4 bytes a rule)
// and shifted it: 15.2 KiB and 11 objects. While the clone copied the rule
// slice and the arena whole and a delta renumbered every stored rule index:
// 240 KiB.
func TestDeltaAllocs(t *testing.T) {
	objects, kib := deltaAllocs(t)
	t.Logf("a delta on a fresh clone allocates %.1f objects, %.1f KiB", objects, kib)
	if objects > 12 {
		t.Errorf("a delta allocates %.1f objects, want at most 12", objects)
	}
	if kib > 10.5 {
		t.Errorf("a delta allocates %.1f KiB, want at most 10.5", kib)
	}
}
