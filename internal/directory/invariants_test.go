package directory

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// checkInvariants verifies the blocked layout of every partition, for both
// views: no empty block and none over blockMax, order inside blocks and
// across block boundaries, a record count that equals CountAttr (and, over
// all partitions, Len), and the same multiset in the two views.
func (s *Store) checkInvariants() error {
	total := 0
	for _, p := range s.partitions() {
		p.mu.RLock()
		vals, errV := p.vals.check(valueLess)
		keys, errK := p.keys.check(keyLess)
		p.mu.RUnlock()
		if errV != nil {
			return fmt.Errorf("%s value view: %w", p.attr, errV)
		}
		if errK != nil {
			return fmt.Errorf("%s key view: %w", p.attr, errK)
		}
		if n := s.CountAttr(p.attr); len(vals) != n || len(keys) != n {
			return fmt.Errorf("%s: views hold %d and %d records, CountAttr %d", p.attr, len(vals), len(keys), n)
		}
		sort.Slice(keys, func(i, j int) bool { return valueLess(keys[i], keys[j]) })
		if !reflect.DeepEqual(vals, keys) {
			return fmt.Errorf("%s: the two views hold different multisets", p.attr)
		}
		total += len(vals)
	}
	if total != s.Len() {
		return fmt.Errorf("partitions hold %d records, Len %d", total, s.Len())
	}
	return nil
}

// check verifies one view's blocks and returns its records in order.
func (v *seq) check(less lessFn) ([]rec, error) {
	var all []rec
	for bi, blk := range v.blocks {
		b := blk.recs
		if len(b) == 0 || len(b) > blockMax {
			return nil, fmt.Errorf("block %d holds %d records, want 1..%d", bi, len(b), blockMax)
		}
		if blk.last != b[len(b)-1] {
			return nil, fmt.Errorf("block %d: stale last-record copy", bi)
		}
		for i, r := range b {
			if len(all) > 0 && less(r, all[len(all)-1]) {
				return nil, fmt.Errorf("block %d index %d out of order", bi, i)
			}
			all = append(all, r)
		}
	}
	if len(all) != v.n {
		return nil, fmt.Errorf("blocks hold %d records, count says %d", len(all), v.n)
	}
	return all, nil
}

// mustHold fails the test if the structure invariants or the observable
// state against the oracle do not hold.
func mustHold(t *testing.T, s *Store, ref *linearStore) {
	t.Helper()
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s, ref)
}

// fillBoth adds n random single-attribute entries one by one, enough for
// several splits per view.
func fillBoth(rng *rand.Rand, s *Store, ref *linearStore, n int) {
	for i := 0; i < n; i++ {
		e := entry(uint64(rng.Intn(1<<16)), "cpu", float64(rng.Intn(100000)), fmt.Sprintf("o%d", rng.Intn(50)))
		s.Add(e)
		ref.Add(e)
	}
}

func (s *Store) blockCount(attr string, keys bool) int {
	p := s.part(attr)
	if keys {
		return len(p.keys.blocks)
	}
	return len(p.vals.blocks)
}

func TestSplitsKeepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Store
	var ref linearStore
	fillBoth(rng, &s, &ref, 5*blockMax)
	if s.blockCount("cpu", false) < 4 || s.blockCount("cpu", true) < 4 {
		t.Fatalf("%d inserts made %d value and %d key blocks, want splits",
			5*blockMax, s.blockCount("cpu", false), s.blockCount("cpu", true))
	}
	mustHold(t, &s, &ref)
}

// Removing a block's last record moves the boundary the block search
// reads; removing its only record deletes the block.
func TestRemoveBlockLastAndOnly(t *testing.T) {
	for _, keys := range []bool{false, true} {
		t.Run(fmt.Sprintf("keyview=%v", keys), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var s Store
			var ref linearStore
			fillBoth(rng, &s, &ref, 4*blockMax)
			before := s.blockCount("cpu", keys)
			p := s.part("cpu")
			view := &p.vals
			if keys {
				view = &p.keys
			}
			mid := len(view.blocks) / 2
			for n := len(view.blocks[mid].recs); n > 0; n-- {
				b := view.blocks[mid].recs
				e := b[len(b)-1].entry("cpu")
				if !s.Remove(e) || !ref.Remove(e) {
					t.Fatalf("Remove(%v) found nothing", e)
				}
				mustHold(t, &s, &ref)
			}
			if got := s.blockCount("cpu", keys); got != before-1 {
				t.Fatalf("emptied block not deleted: %d blocks, want %d", got, before-1)
			}
			// A single-record partition: its only block goes with it.
			var one Store
			e := entry(1, "mem", 2, "a")
			one.Add(e)
			if !one.Remove(e) || one.blockCount("mem", keys) != 0 {
				t.Fatal("removing the only record left a block behind")
			}
			if err := one.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TakeRange cuts inside the two boundary blocks and drops the blocks
// between them, for plain and wrapped intervals.
func TestTakeRangeAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Store
	var ref linearStore
	fillBoth(rng, &s, &ref, 6*blockMax)
	p := s.part("cpu")
	if len(p.keys.blocks) < 6 {
		t.Fatalf("only %d key blocks", len(p.keys.blocks))
	}
	inside := func(b int) uint64 { // a key strictly inside block b
		blk := p.keys.blocks[b].recs
		return blk[len(blk)/2].key
	}
	cases := []struct {
		lo, hi  uint64
		wrapped bool
	}{
		{inside(1), inside(4), false},                     // spans whole blocks
		{inside(2), inside(2) + 1, false},                 // inside one block
		{inside(len(p.keys.blocks) - 2), inside(1), true}, // wrapped tail and head
		{inside(1), inside(2), true},                      // wrapped with lo <= hi: everything
	}
	for _, c := range cases {
		got := canonical(s.TakeRange(c.lo, c.hi, c.wrapped))
		want := canonical(ref.TakeRange(c.lo, c.hi, c.wrapped))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TakeRange(%d,%d,%v): got %d entries, want %d", c.lo, c.hi, c.wrapped, len(got), len(want))
		}
		mustHold(t, &s, &ref)
		fillBoth(rng, &s, &ref, 2*blockMax)
		p = s.part("cpu")
	}
}

// Equal values, and fully identical records, straddle the splits their
// inserts cause; matches and removals must see every copy.
func TestEqualValuesStraddleSplit(t *testing.T) {
	var s Store
	var ref linearStore
	for i := 0; i < 3*blockMax; i++ {
		e := entry(uint64(i%7), "cpu", 42, fmt.Sprintf("o%d", i%3))
		s.Add(e)
		ref.Add(e)
	}
	mustHold(t, &s, &ref)
	if got := len(s.Match("cpu", 42, 42)); got != 3*blockMax {
		t.Fatalf("Match over equal values = %d entries, want %d", got, 3*blockMax)
	}
	want := 0
	for _, e := range ref.Snapshot() {
		if e.Key == 3 {
			want++
		}
	}
	if got := len(s.AtKey(3)); got != want {
		t.Fatalf("AtKey(3) = %d entries, want %d", got, want)
	}
	for i := 0; i < blockMax; i++ {
		e := entry(uint64(i%7), "cpu", 42, fmt.Sprintf("o%d", i%3))
		if !s.Remove(e) || !ref.Remove(e) {
			t.Fatalf("Remove(%v) found nothing", e)
		}
	}
	mustHold(t, &s, &ref)
}

// A large AddAll into a non-empty partition rebuilds it in one merge; a
// small one inserts record by record. Both must keep the layout.
func TestAddAllIntoNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Store
	var ref linearStore
	fillBoth(rng, &s, &ref, 3*blockMax)
	for _, n := range []int{4 * blockMax, 10} {
		batch := make([]Entry, n)
		for i := range batch {
			batch[i] = entry(uint64(rng.Intn(1<<16)), "cpu", float64(rng.Intn(100000)), "b")
		}
		s.AddAll(batch)
		ref.AddAll(batch)
		mustHold(t, &s, &ref)
	}
	fillBoth(rng, &s, &ref, blockMax)
	mustHold(t, &s, &ref)
}
