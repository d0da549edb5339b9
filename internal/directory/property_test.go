package directory

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The property tests drive the ordered index and the seed linear store
// through identical operation sequences and require that every observable
// — match results, extraction results, counts, final contents — agrees as
// a multiset. Only ordering may differ (the index returns sorted results;
// the linear store returns insertion order).

var propAttrs = []string{"cpu", "mem", "disk", "net"}

func randEntry(rng *rand.Rand) Entry {
	return entry(
		uint64(rng.Intn(1<<16)),
		propAttrs[rng.Intn(len(propAttrs))],
		float64(rng.Intn(1000)),
		fmt.Sprintf("o%d", rng.Intn(50)),
	)
}

// applyOp applies one random operation to both stores and fails the test
// on any observable divergence.
func applyOp(t *testing.T, rng *rand.Rand, s *Store, ref *linearStore) {
	t.Helper()
	switch rng.Intn(8) {
	case 0, 1: // Add (weighted: the common op)
		e := randEntry(rng)
		s.Add(e)
		ref.Add(e)
	case 2: // AddAll
		batch := make([]Entry, rng.Intn(200))
		for i := range batch {
			batch[i] = randEntry(rng)
		}
		s.AddAll(batch)
		ref.AddAll(batch)
	case 3: // Match + MatchAppend
		attr := propAttrs[rng.Intn(len(propAttrs))]
		lo := float64(rng.Intn(1000))
		hi := lo + float64(rng.Intn(300))
		got := canonicalInfos(s.Match(attr, lo, hi))
		want := canonicalInfos(ref.Match(attr, lo, hi))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Match(%s,%v,%v) diverged:\n got %v\nwant %v", attr, lo, hi, got, want)
		}
		appended := s.MatchAppend(nil, attr, lo, hi)
		if !reflect.DeepEqual(canonicalInfos(appended), want) {
			t.Fatalf("MatchAppend(%s,%v,%v) diverged from oracle", attr, lo, hi)
		}
	case 4: // TakeRange, sometimes wrapped
		lo := uint64(rng.Intn(1 << 16))
		hi := uint64(rng.Intn(1 << 16))
		wrapped := lo > hi
		if rng.Intn(4) == 0 { // force a wrapped interval with lo < hi too
			lo, hi = hi, lo
			wrapped = lo > hi
		}
		got := canonical(s.TakeRange(lo, hi, wrapped))
		want := canonical(ref.TakeRange(lo, hi, wrapped))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TakeRange(%d,%d,%v) diverged: got %d entries, want %d",
				lo, hi, wrapped, len(got), len(want))
		}
	case 5: // TakeIf on a value/attr predicate
		attr := propAttrs[rng.Intn(len(propAttrs))]
		cut := float64(rng.Intn(1000))
		pred := func(e Entry) bool { return e.Info.Attr == attr && e.Info.Value < cut }
		got := canonical(s.TakeIf(pred))
		want := canonical(ref.TakeIf(pred))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TakeIf diverged: got %d entries, want %d", len(got), len(want))
		}
	case 6: // Remove a (sometimes present) entry
		var e Entry
		if snap := ref.Snapshot(); len(snap) > 0 && rng.Intn(4) != 0 {
			e = snap[rng.Intn(len(snap))]
		} else {
			e = randEntry(rng)
		}
		if got, want := s.Remove(e), ref.Remove(e); got != want {
			t.Fatalf("Remove(%v) = %v, oracle %v", e, got, want)
		}
	case 7: // TakeAll, occasionally
		if rng.Intn(8) != 0 {
			return
		}
		got := canonical(s.TakeAll())
		want := canonical(ref.TakeAll())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TakeAll diverged: got %d entries, want %d", len(got), len(want))
		}
	}
}

// checkInvariants compares the two stores' full observable state.
func checkInvariants(t *testing.T, s *Store, ref *linearStore) {
	t.Helper()
	if s.Len() != ref.Len() {
		t.Fatalf("Len = %d, oracle %d", s.Len(), ref.Len())
	}
	for _, attr := range propAttrs {
		if s.CountAttr(attr) != ref.CountAttr(attr) {
			t.Fatalf("CountAttr(%s) = %d, oracle %d", attr, s.CountAttr(attr), ref.CountAttr(attr))
		}
	}
	got := canonical(s.Snapshot())
	want := canonical(ref.Snapshot())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot diverged: got %d entries, oracle %d", len(got), len(want))
	}
}

func TestPropertyVsLinearStore(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var s Store
			var ref linearStore
			for i := 0; i < 400; i++ {
				applyOp(t, rng, &s, &ref)
				if err := s.checkInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			checkInvariants(t, &s, &ref)
		})
	}
}

// TestPropertyManyMerges uses long runs of Adds so the blocks of every
// view split many times, then checks range extraction still agrees.
func TestPropertyManyMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s Store
	var ref linearStore
	for i := 0; i < 5000; i++ {
		e := randEntry(rng)
		s.Add(e)
		ref.Add(e)
	}
	checkInvariants(t, &s, &ref)
	for i := 0; i < 50; i++ {
		lo, hi := uint64(rng.Intn(1<<16)), uint64(rng.Intn(1<<16))
		wrapped := lo > hi
		got := canonical(s.TakeRange(lo, hi, wrapped))
		want := canonical(ref.TakeRange(lo, hi, wrapped))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TakeRange(%d,%d,%v) diverged", lo, hi, wrapped)
		}
	}
	checkInvariants(t, &s, &ref)
}

// FuzzStoreOps decodes an arbitrary byte stream into an operation sequence
// and replays it against both stores. The fuzzer explores adversarial
// interleavings (wrapped ranges over empty partitions, removes of absent
// entries, TakeAll mid-stream) that the seeded property tests may miss.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 255, 4, 0, 0, 4, 255, 255, 7, 7, 7})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Store
		var ref linearStore
		// Derive a deterministic RNG from the data so operand choice is
		// reproducible, while the op codes come straight from the bytes.
		var h uint64 = 1469598103934665603
		for _, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
		}
		rng := rand.New(rand.NewSource(int64(h)))
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 7
			arg := binary.LittleEndian.Uint16(data[i+1 : i+3])
			switch op {
			case 0:
				e := entry(uint64(arg), propAttrs[int(arg)%len(propAttrs)],
					float64(arg%997), fmt.Sprintf("o%d", arg%31))
				s.Add(e)
				ref.Add(e)
			case 1:
				n := int(arg % 64)
				batch := make([]Entry, n)
				for j := range batch {
					batch[j] = randEntry(rng)
				}
				s.AddAll(batch)
				ref.AddAll(batch)
			case 2:
				attr := propAttrs[int(arg)%len(propAttrs)]
				lo := float64(arg % 997)
				hi := lo + float64(arg%251)
				got := canonicalInfos(s.Match(attr, lo, hi))
				want := canonicalInfos(ref.Match(attr, lo, hi))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Match diverged at op %d", i)
				}
			case 3:
				lo := uint64(arg)
				hi := uint64(binary.LittleEndian.Uint16(append([]byte{data[i+2]}, data[i+1])))
				wrapped := lo > hi
				got := canonical(s.TakeRange(lo, hi, wrapped))
				want := canonical(ref.TakeRange(lo, hi, wrapped))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TakeRange(%d,%d,%v) diverged at op %d", lo, hi, wrapped, i)
				}
			case 4:
				cut := float64(arg % 997)
				pred := func(e Entry) bool { return e.Info.Value < cut }
				got := canonical(s.TakeIf(pred))
				want := canonical(ref.TakeIf(pred))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TakeIf diverged at op %d", i)
				}
			case 5:
				var e Entry
				if snap := ref.Snapshot(); len(snap) > 0 {
					e = snap[int(arg)%len(snap)]
				} else {
					e = randEntry(rng)
				}
				if got, want := s.Remove(e), ref.Remove(e); got != want {
					t.Fatalf("Remove diverged at op %d", i)
				}
			case 6:
				if arg%13 != 0 {
					continue
				}
				got := canonical(s.TakeAll())
				want := canonical(ref.TakeAll())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TakeAll diverged at op %d", i)
				}
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if s.Len() != ref.Len() {
			t.Fatalf("final Len = %d, oracle %d", s.Len(), ref.Len())
		}
		got := canonical(s.Snapshot())
		want := canonical(ref.Snapshot())
		if !reflect.DeepEqual(got, want) {
			t.Fatal("final Snapshot diverged")
		}
	})
}
