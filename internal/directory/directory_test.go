package directory

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lorm/internal/resource"
)

func entry(key uint64, attr string, v float64, owner string) Entry {
	return Entry{Key: key, Info: resource.Info{Attr: attr, Value: v, Owner: owner}}
}

func TestAddLenMatch(t *testing.T) {
	var s Store
	s.Add(entry(1, "cpu", 1800, "a"))
	s.Add(entry(2, "cpu", 2400, "b"))
	s.Add(entry(3, "mem", 2048, "c"))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := s.Match("cpu", 1000, 2000)
	if len(got) != 1 || got[0].Owner != "a" {
		t.Fatalf("Match = %v", got)
	}
	if got := s.Match("cpu", 1800, 2400); len(got) != 2 {
		t.Fatalf("inclusive bounds: got %v", got)
	}
	if got := s.Match("disk", 0, 1e9); got != nil {
		t.Fatalf("Match on absent attr = %v, want nil", got)
	}
}

func TestCountAttr(t *testing.T) {
	var s Store
	s.AddAll([]Entry{
		entry(1, "cpu", 1, "a"),
		entry(2, "cpu", 2, "b"),
		entry(3, "mem", 3, "c"),
	})
	if s.CountAttr("cpu") != 2 || s.CountAttr("mem") != 1 || s.CountAttr("x") != 0 {
		t.Fatalf("CountAttr wrong: cpu=%d mem=%d x=%d",
			s.CountAttr("cpu"), s.CountAttr("mem"), s.CountAttr("x"))
	}
}

func TestAddAllEmpty(t *testing.T) {
	var s Store
	s.AddAll(nil)
	if s.Len() != 0 {
		t.Fatal("AddAll(nil) changed the store")
	}
}

func TestTakeIf(t *testing.T) {
	var s Store
	for i := uint64(0); i < 10; i++ {
		s.Add(entry(i, "cpu", float64(i), fmt.Sprintf("o%d", i)))
	}
	moved := s.TakeIf(func(e Entry) bool { return e.Key < 4 })
	if len(moved) != 4 {
		t.Fatalf("moved %d entries, want 4", len(moved))
	}
	if s.Len() != 6 {
		t.Fatalf("kept %d entries, want 6", s.Len())
	}
	for _, e := range s.Snapshot() {
		if e.Key < 4 {
			t.Fatalf("entry %v should have moved", e)
		}
	}
}

func TestTakeAll(t *testing.T) {
	var s Store
	s.Add(entry(1, "cpu", 1, "a"))
	s.Add(entry(2, "cpu", 2, "b"))
	all := s.TakeAll()
	if len(all) != 2 || s.Len() != 0 {
		t.Fatalf("TakeAll = %d entries, store has %d", len(all), s.Len())
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	var s Store
	s.Add(entry(1, "cpu", 1, "a"))
	snap := s.Snapshot()
	snap[0].Info.Owner = "mutated"
	if s.Snapshot()[0].Info.Owner != "a" {
		t.Fatal("Snapshot aliases internal storage")
	}
}

func TestConcurrentAccess(t *testing.T) {
	var s Store
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(entry(uint64(w*1000+i), "cpu", float64(i), "o"))
				s.Match("cpu", 0, 100)
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("Len = %d, want 1600", s.Len())
	}
}

func TestKeyCounts(t *testing.T) {
	var s Store
	if kc := s.KeyCounts(); len(kc) != 0 {
		t.Fatalf("empty store KeyCounts = %v", kc)
	}
	// Keys deliberately span attributes: 7 holds cpu and mem entries.
	s.Add(entry(7, "cpu", 1, "a"))
	s.Add(entry(7, "mem", 2, "b"))
	s.Add(entry(3, "cpu", 3, "c"))
	s.Add(entry(9, "net", 4, "d"))
	s.Add(entry(7, "cpu", 5, "e"))
	got := s.KeyCounts()
	want := []KeyCount{{Key: 3, Count: 1}, {Key: 7, Count: 3}, {Key: 9, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KeyCounts = %v, want %v", got, want)
	}
	total := 0
	for _, kc := range got {
		total += kc.Count
	}
	if total != s.Len() {
		t.Fatalf("KeyCounts total %d != Len %d", total, s.Len())
	}
	// The SWORD shape: every entry under one key is one indivisible group.
	var pool Store
	for i := 0; i < 50; i++ {
		pool.Add(entry(42, "cpu", float64(i), "o"))
	}
	if kc := pool.KeyCounts(); len(kc) != 1 || kc[0] != (KeyCount{Key: 42, Count: 50}) {
		t.Fatalf("single-key pool KeyCounts = %v", kc)
	}
}
