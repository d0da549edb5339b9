// Package directory implements a node's resource-information directory: the
// set of ⟨attribute, value, owner⟩ pieces a DHT node is responsible for,
// each remembered together with the overlay key it was stored under so that
// churn (node joins and departures) can hand the right entries over to a
// neighbor.
//
// # Layout
//
// The directory is an attribute-partitioned, ordered index. Every attribute
// owns a partition holding the same entries in two sort orders:
//
//   - a value-ordered view answering range queries: Match(attr, lo, hi) is
//     two binary searches plus one contiguous copy-out, O(log n + k);
//   - a key-ordered view answering churn handover: TakeRange(keyLo, keyHi)
//     locates the departing key interval by binary search instead of
//     scanning the whole directory with a closure, O(log n + k).
//
// Each view is one blocked sorted sequence: an ordered slice of sorted
// blocks of at most blockMax records. A binary search over the blocks'
// last records picks a block and a second one the index inside it. Add
// binary-inserts into one block and splits it in half when it is full, so
// an insert costs O(log n + blockMax) and never copies the partition;
// reads walk contiguous blocks from the first hit. Inside a partition an
// entry is stored as an attribute-free record (key, value, owner) — 32
// bytes instead of Entry's 48 — and rebuilt on read from the partition's
// attribute name.
//
// Len and CountAttr are O(1) (an atomic total plus per-partition counts).
//
// # Concurrency
//
// Locking is sharded per attribute: a store-level RWMutex guards only the
// partition table (read-locked for a map probe on every access), and each
// partition carries its own RWMutex. Concurrent queries on different
// attributes — the SWORD/MAAN pooled-directory hot path — touch different
// locks entirely. Operations spanning partitions (TakeRange, TakeIf,
// TakeAll, Snapshot) lock one partition at a time, so a concurrent reader
// may observe a cross-partition operation half-applied; single-partition
// operations are atomic. The zero value is ready to use.
//
// # Determinism
//
// All orders are total (value ties broken by owner then key; key ties by
// value then owner), so every query and snapshot is a pure function of the
// stored multiset — results do not depend on insertion order or on where
// the block boundaries currently fall. That keeps the experiment figures
// value-identical under the parallel registration workload.
package directory

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lorm/internal/resource"
)

// Entry is one stored resource-information piece plus its placement key.
// Key is the overlay's linearized identifier (a Chord ring position, or a
// Cycloid position folded onto the cluster-major order); overlays use it to
// decide which entries migrate when the node set changes.
type Entry struct {
	Key  uint64
	Info resource.Info
}

// rec is an Entry without its attribute, which the partition holding it
// stores once.
type rec struct {
	key   uint64
	value float64
	owner string
}

func recOf(e Entry) rec { return rec{key: e.Key, value: e.Info.Value, owner: e.Info.Owner} }

func (r rec) entry(attr string) Entry {
	return Entry{Key: r.key, Info: resource.Info{Attr: attr, Value: r.value, Owner: r.owner}}
}

// valueLess is the total order of the value view: value, then owner, then
// key. Records equal under it are identical, so block boundaries never
// leak into results.
func valueLess(a, b rec) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.key < b.key
}

// keyLess is the total order of the key view: key, then value, then owner.
func keyLess(a, b rec) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.value != b.value {
		return a.value < b.value
	}
	return a.owner < b.owner
}

type lessFn func(a, b rec) bool

const (
	// blockMax bounds a block; inserting into a full block first splits it
	// into two halves, so the memmove per insert stays under 16 KiB.
	blockMax = 512
	// blockGrow is the capacity step of a growing block (doubling below
	// it), instead of append's doubling, which would leave up to half of
	// every large block unused.
	blockGrow = 32
	// bulkShare: an AddAll batch holding at least 1/bulkShare as many
	// records as its partition rebuilds the partition in one merge instead
	// of inserting record by record.
	bulkShare = 32
)

// seq is one sort order over a partition's records: an ordered slice of
// non-empty sorted blocks of at most blockMax records whose concatenation
// is sorted. A position in it is a (block, index) pair; (len(blocks), 0)
// is the end.
type seq struct {
	blocks []block
	n      int
}

// block is one sorted run plus a copy of its last record, so the search
// for a block reads only the contiguous block headers.
type block struct {
	recs []rec
	last rec
}

// set stores block bi's records and refreshes its last-record copy. An
// emptied block keeps a stale copy until dropEmpty or cutBlock deletes it.
func (s *seq) set(bi int, b []rec) {
	s.blocks[bi].recs = b
	if len(b) > 0 {
		s.blocks[bi].last = b[len(b)-1]
	}
}

// lower returns the position of the first record not less than r.
func (s *seq) lower(r rec, less lessFn) (int, int) {
	i, j := 0, len(s.blocks)
	for i < j {
		h := int(uint(i+j) >> 1)
		if less(s.blocks[h].last, r) {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(s.blocks) {
		return i, 0
	}
	b := s.blocks[i].recs
	lo, hi := 0, len(b)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if less(b[h], r) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return i, lo
}

// Hand-rolled bounds for the read hot path (no closure, no interface).

// valBound returns the position of the first record with value >= v, or
// with value > v when upper is set.
func (s *seq) valBound(v float64, upper bool) (int, int) {
	i, j := 0, len(s.blocks)
	for i < j {
		h := int(uint(i+j) >> 1)
		if x := s.blocks[h].last.value; x < v || upper && x == v {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(s.blocks) {
		return i, 0
	}
	b := s.blocks[i].recs
	lo, hi := 0, len(b)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if x := b[h].value; x < v || upper && x == v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return i, lo
}

// keyBound returns the position of the first record with key >= k, or with
// key > k when upper is set.
func (s *seq) keyBound(k uint64, upper bool) (int, int) {
	i, j := 0, len(s.blocks)
	for i < j {
		h := int(uint(i+j) >> 1)
		if x := s.blocks[h].last.key; x < k || upper && x == k {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(s.blocks) {
		return i, 0
	}
	b := s.blocks[i].recs
	lo, hi := 0, len(b)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if x := b[h].key; x < k || upper && x == k {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return i, lo
}

// count returns the number of records between two positions, or a number
// <= 0 when the second does not follow the first.
func (s *seq) count(b1, i1, b2, i2 int) int {
	if b1 > b2 {
		return 0
	}
	k := i2 - i1
	for b := b1; b < b2; b++ {
		k += len(s.blocks[b].recs)
	}
	return k
}

// each calls f on the runs of records between two positions, in order.
func (s *seq) each(b1, i1, b2, i2 int, f func([]rec)) {
	for b := b1; b <= b2 && b < len(s.blocks); b++ {
		run := s.blocks[b].recs
		if b == b2 {
			run = run[:i2]
		}
		if b == b1 {
			run = run[i1:]
		}
		f(run)
	}
}

// insert binary-inserts r, splitting its block in half first if full.
func (s *seq) insert(r rec, less lessFn) {
	s.n++
	bi, i := s.lower(r, less)
	if bi == len(s.blocks) {
		if bi == 0 {
			s.blocks = append(s.blocks, block{recs: []rec{r}, last: r})
			return
		}
		// Greater than every record: append to the last block.
		bi--
		i = len(s.blocks[bi].recs)
	}
	b := s.blocks[bi].recs
	if len(b) == blockMax {
		// Both halves move to new arrays with room for blockGrow inserts,
		// so no block keeps more than blockGrow unused slots.
		const h = blockMax / 2
		left := append(make([]rec, 0, h+blockGrow), b[:h]...)
		right := append(make([]rec, 0, blockMax-h+blockGrow), b[h:]...)
		s.set(bi, left)
		s.blocks = slices.Insert(s.blocks, bi+1, block{recs: right, last: right[len(right)-1]})
		mBlockSplits.Inc()
		b = left
		if i > h {
			bi, i, b = bi+1, i-h, right
		}
	}
	if len(b) == cap(b) {
		grown := make([]rec, len(b)+1, cap(b)+min(cap(b), blockGrow))
		copy(grown, b[:i])
		copy(grown[i+1:], b[i:])
		b = grown
	} else {
		b = b[:len(b)+1]
		copy(b[i+1:], b[i:])
	}
	b[i] = r
	s.set(bi, b)
}

// merge folds a sorted batch in with one pass, rebuilding every block
// half full and exactly sized.
func (s *seq) merge(batch []rec, less lessFn) {
	total := s.n + len(batch)
	left := total
	blocks := make([]block, 0, total/(blockMax/2)+1)
	var cur []rec
	put := func(r rec) {
		if cur == nil {
			cur = make([]rec, 0, min(left, blockMax/2))
		}
		cur = append(cur, r)
		left--
		if len(cur) == cap(cur) {
			blocks = append(blocks, block{recs: cur, last: r})
			cur = nil
		}
	}
	for _, b := range s.blocks {
		for _, r := range b.recs {
			for len(batch) > 0 && less(batch[0], r) {
				put(batch[0])
				batch = batch[1:]
			}
			put(r)
		}
	}
	for _, r := range batch {
		put(r)
	}
	s.blocks, s.n = blocks, total
}

// cutBlock removes records [i, j) of block bi, deleting the block if it
// empties.
func (s *seq) cutBlock(bi, i, j int) {
	b := s.blocks[bi].recs
	w := i + copy(b[i:], b[j:])
	clear(b[w:])
	s.n -= j - i
	if w == 0 {
		s.blocks = slices.Delete(s.blocks, bi, bi+1)
		return
	}
	s.set(bi, b[:w])
}

// cut removes the records between two positions, appending them to gone
// in order: it cuts inside the two boundary blocks and drops the whole
// blocks between them.
func (s *seq) cut(gone []rec, b1, i1, b2, i2 int) []rec {
	if b1 == b2 {
		if i1 < i2 {
			gone = append(gone, s.blocks[b1].recs[i1:i2]...)
			s.cutBlock(b1, i1, i2)
		}
		return gone
	}
	gone = append(gone, s.blocks[b1].recs[i1:]...)
	for _, b := range s.blocks[b1+1 : b2] {
		gone = append(gone, b.recs...)
		s.n -= len(b.recs)
	}
	if b2 < len(s.blocks) && i2 > 0 {
		gone = append(gone, s.blocks[b2].recs[:i2]...)
		s.cutBlock(b2, 0, i2)
	}
	s.blocks = slices.Delete(s.blocks, b1+1, b2)
	s.cutBlock(b1, i1, len(s.blocks[b1].recs))
	return gone
}

// remove deletes one record equal to r and reports whether one was found.
func (s *seq) remove(r rec, less lessFn) bool {
	bi, i := s.lower(r, less)
	if bi == len(s.blocks) || s.blocks[bi].recs[i] != r {
		return false
	}
	s.cutBlock(bi, i, i+1)
	return true
}

// removeAll deletes one record equal to each of rs, which is sorted in
// this sequence's order and present in it, compacting only the blocks
// that hold them.
func (s *seq) removeAll(rs []rec, less lessFn) {
	if len(rs) == 0 {
		return
	}
	bi, _ := s.lower(rs[0], less)
	for ; len(rs) > 0 && bi < len(s.blocks); bi++ {
		if less(s.blocks[bi].last, rs[0]) {
			continue
		}
		b := s.blocks[bi].recs
		w := 0
		for _, r := range b {
			if len(rs) > 0 && r == rs[0] {
				rs = rs[1:]
				continue
			}
			b[w] = r
			w++
		}
		s.n -= len(b) - w
		clear(b[w:])
		s.set(bi, b[:w])
	}
	s.dropEmpty()
}

// filter removes the records whose entry pred reports true for, appending
// those entries to moved.
func (s *seq) filter(attr string, pred func(Entry) bool, moved []Entry) []Entry {
	for bi := range s.blocks {
		b := s.blocks[bi].recs
		w := 0
		for _, r := range b {
			if e := r.entry(attr); pred(e) {
				moved = append(moved, e)
				continue
			}
			b[w] = r
			w++
		}
		s.n -= len(b) - w
		clear(b[w:])
		s.set(bi, b[:w])
	}
	s.dropEmpty()
	return moved
}

func (s *seq) dropEmpty() {
	s.blocks = slices.DeleteFunc(s.blocks, func(b block) bool { return len(b.recs) == 0 })
}

// appendEntries appends every record, in order, as an entry of attr.
func (s *seq) appendEntries(dst []Entry, attr string) []Entry {
	for _, b := range s.blocks {
		for _, r := range b.recs {
			dst = append(dst, r.entry(attr))
		}
	}
	return dst
}

// partition holds one attribute's records in both sort orders under one
// lock shard.
type partition struct {
	mu   sync.RWMutex
	attr string
	vals seq // value order: Match / MatchAppend
	keys seq // key order: TakeRange / Remove
}

// insert adds one record to both views.
func (p *partition) insert(r rec) {
	p.vals.insert(r, valueLess)
	p.keys.insert(r, keyLess)
}

// Store is a concurrency-safe directory. The zero value is ready to use.
type Store struct {
	mu    sync.RWMutex
	parts map[string]*partition
	names []string // sorted attribute names, for deterministic iteration
	count atomic.Int64
}

// part returns the attribute's partition, or nil.
func (s *Store) part(attr string) *partition {
	s.mu.RLock()
	p := s.parts[attr]
	s.mu.RUnlock()
	return p
}

// partCreate returns the attribute's partition, creating it on first use.
func (s *Store) partCreate(attr string) *partition {
	if p := s.part(attr); p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parts == nil {
		s.parts = make(map[string]*partition)
	}
	if p := s.parts[attr]; p != nil {
		return p
	}
	p := &partition{attr: attr}
	s.parts[attr] = p
	i := sort.SearchStrings(s.names, attr)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = attr
	return p
}

// partitions returns every partition in sorted attribute order.
func (s *Store) partitions() []*partition {
	s.mu.RLock()
	out := make([]*partition, len(s.names))
	for i, name := range s.names {
		out[i] = s.parts[name]
	}
	s.mu.RUnlock()
	return out
}

// Add stores one entry.
func (s *Store) Add(e Entry) {
	p := s.partCreate(e.Info.Attr)
	p.mu.Lock()
	p.insert(recOf(e))
	p.mu.Unlock()
	s.count.Add(1)
	mAdds.Inc()
}

// AddAll stores a batch of entries (used by key transfer). The batch is
// grouped by attribute; a group large against its partition is sorted once
// per view and merged in one pass, a small one is inserted record by
// record.
func (s *Store) AddAll(es []Entry) {
	if len(es) == 0 {
		return
	}
	groups := make(map[string][]rec)
	for _, e := range es {
		groups[e.Info.Attr] = append(groups[e.Info.Attr], recOf(e))
	}
	for attr, batch := range groups {
		p := s.partCreate(attr)
		p.mu.Lock()
		if len(batch)*bulkShare < p.vals.n {
			for _, r := range batch {
				p.insert(r)
			}
		} else {
			sort.Slice(batch, func(i, j int) bool { return valueLess(batch[i], batch[j]) })
			p.vals.merge(batch, valueLess)
			sort.Slice(batch, func(i, j int) bool { return keyLess(batch[i], batch[j]) })
			p.keys.merge(batch, keyLess)
		}
		p.mu.Unlock()
	}
	s.count.Add(int64(len(es)))
	mAdds.Add(uint64(len(es)))
}

// Len returns the directory size in information pieces — the quantity the
// paper's Figures 3(b)–(d) aggregate per node. O(1).
func (s *Store) Len() int { return int(s.count.Load()) }

// CountAttr returns how many pieces the directory holds for one attribute.
// O(1).
func (s *Store) CountAttr(attr string) int {
	p := s.part(attr)
	if p == nil {
		return 0
	}
	p.mu.RLock()
	n := p.vals.n
	p.mu.RUnlock()
	return n
}

// Match returns the stored pieces for the given attribute whose values fall
// in [lo, hi], in ascending value order.
func (s *Store) Match(attr string, lo, hi float64) []resource.Info {
	return s.MatchAppend(nil, attr, lo, hi)
}

// MatchAppend appends the pieces matching [lo, hi] to dst and returns the
// extended slice. It allocates only when dst lacks capacity (and then
// exactly once), so range walks that reuse a buffer run allocation-free:
// two binary searches plus one copy-out of the k matches.
func (s *Store) MatchAppend(dst []resource.Info, attr string, lo, hi float64) []resource.Info {
	mMatches.Inc()
	p := s.part(attr)
	if p == nil {
		return dst
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	b1, i1 := p.vals.valBound(lo, false)
	b2, i2 := p.vals.valBound(hi, true)
	k := p.vals.count(b1, i1, b2, i2)
	if k <= 0 {
		return dst
	}
	n := len(dst)
	if cap(dst)-n < k {
		grown := make([]resource.Info, n, n+k)
		copy(grown, dst)
		dst = grown
	}
	out := dst[n : n+k]
	p.vals.each(b1, i1, b2, i2, func(run []rec) {
		for i := range run {
			o, r := &out[i], &run[i]
			o.Attr, o.Value, o.Owner = attr, r.value, r.owner
		}
		out = out[len(run):]
	})
	mMatchEntries.Add(uint64(k))
	return dst[:n+k]
}

// MatchEntriesAppend is MatchAppend at Entry granularity: it appends the
// stored entries (key included) matching [lo, hi] to dst in ascending value
// order. Replica-aware readers use it so replication-layer deduplication can
// distinguish two resources that agree on (attr, value, owner) but were
// stored under different keys.
func (s *Store) MatchEntriesAppend(dst []Entry, attr string, lo, hi float64) []Entry {
	mMatches.Inc()
	p := s.part(attr)
	if p == nil {
		return dst
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	b1, i1 := p.vals.valBound(lo, false)
	b2, i2 := p.vals.valBound(hi, true)
	k := p.vals.count(b1, i1, b2, i2)
	if k <= 0 {
		return dst
	}
	n := len(dst)
	if cap(dst)-n < k {
		grown := make([]Entry, n, n+k)
		copy(grown, dst)
		dst = grown
	}
	out := dst[n : n+k]
	p.vals.each(b1, i1, b2, i2, func(run []rec) {
		for i := range run {
			o, r := &out[i], &run[i]
			o.Key, o.Info.Attr, o.Info.Value, o.Info.Owner = r.key, attr, r.value, r.owner
		}
		out = out[len(run):]
	})
	mMatchEntries.Add(uint64(k))
	return dst[:n+k]
}

// AtKey returns every entry stored under the given overlay key, across all
// attributes, in attribute order and key order within an attribute — a pure
// function of the stored multiset, like every other read. Hot-key promotion
// uses it to copy one key-group wholesale.
func (s *Store) AtKey(key uint64) []Entry {
	var out []Entry
	for _, p := range s.partitions() {
		p.mu.RLock()
		b1, i1 := p.keys.keyBound(key, false)
		b2, i2 := p.keys.keyBound(key, true)
		p.keys.each(b1, i1, b2, i2, func(run []rec) {
			for _, r := range run {
				out = append(out, r.entry(p.attr))
			}
		})
		p.mu.RUnlock()
	}
	return out
}

// Contains reports whether the directory holds at least one entry equal to
// e (key, attribute, value and owner all matching). Promotion paths use it
// to avoid double-placing a copy a base-replication pass already stored.
func (s *Store) Contains(e Entry) bool {
	p := s.part(e.Info.Attr)
	if p == nil {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	r := recOf(e)
	bi, i := p.keys.lower(r, keyLess)
	return bi < len(p.keys.blocks) && p.keys.blocks[bi].recs[i] == r
}

// TakeRange removes and returns every entry whose key lies in the interval
// [keyLo, keyHi] — or, when wrapped, in [keyLo, max] ∪ [min, keyHi] (an
// interval crossing the ring's zero point). It is the churn-handover
// primitive: a joining node calls it on its successor with the key interval
// it now owns, located by binary search on the key-ordered view instead of
// a predicate scan of the whole directory.
func (s *Store) TakeRange(keyLo, keyHi uint64, wrapped bool) []Entry {
	var moved []Entry
	for _, p := range s.partitions() {
		moved = p.takeRange(moved, keyLo, keyHi, wrapped)
	}
	mTakeRanges.Inc()
	if n := len(moved); n > 0 {
		s.count.Add(-int64(n))
		mHandedOver.Add(uint64(n))
	}
	return moved
}

// takeRange extracts this partition's share of the key interval, appending
// the moved entries to dst in key order.
func (p *partition) takeRange(dst []Entry, lo, hi uint64, wrapped bool) []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Cheap reject: partition entirely outside the interval.
	if min, max, ok := p.keys.keyBounds(); !ok || !intervalOverlaps(lo, hi, wrapped, min, max) {
		return dst
	}
	k := &p.keys
	var gone []rec
	switch {
	case !wrapped:
		b1, i1 := k.keyBound(lo, false)
		b2, i2 := k.keyBound(hi, true)
		gone = k.cut(gone, b1, i1, b2, i2)
	case lo <= hi:
		// A wrapped interval with lo <= hi covers the whole ring.
		gone = k.cut(gone, 0, 0, len(k.blocks), 0)
	default:
		// [min, hi] first, so the moved records stay in key order.
		b, i := k.keyBound(hi, true)
		gone = k.cut(gone, 0, 0, b, i)
		b, i = k.keyBound(lo, false)
		gone = k.cut(gone, b, i, len(k.blocks), 0)
	}
	for _, r := range gone {
		dst = append(dst, r.entry(p.attr))
	}
	// Remove the identical multiset from the value view.
	sort.Slice(gone, func(i, j int) bool { return valueLess(gone[i], gone[j]) })
	p.vals.removeAll(gone, valueLess)
	return dst
}

// keyBounds returns the smallest and largest key in the sequence.
func (s *seq) keyBounds() (min, max uint64, ok bool) {
	if len(s.blocks) == 0 {
		return 0, 0, false
	}
	return s.blocks[0].recs[0].key, s.blocks[len(s.blocks)-1].last.key, true
}

// intervalOverlaps reports whether the (possibly wrapped) key interval
// intersects [min, max].
func intervalOverlaps(lo, hi uint64, wrapped bool, min, max uint64) bool {
	if wrapped {
		return max >= lo || min <= hi
	}
	return max >= lo && min <= hi
}

// TakeIf removes and returns every entry for which shouldMove reports true.
// It is the general predicate fallback (TakeRange covers the key-interval
// case in O(log n + k)); the predicate is evaluated once per entry.
// Entries are scanned partition by partition in attribute order, each
// partition's in value order.
func (s *Store) TakeIf(shouldMove func(Entry) bool) []Entry {
	var moved []Entry
	for _, p := range s.partitions() {
		p.mu.Lock()
		start := len(moved)
		moved = p.vals.filter(p.attr, shouldMove, moved)
		if gone := moved[start:]; len(gone) > 0 {
			// Mirror the removal in the key view.
			rs := make([]rec, len(gone))
			for i, e := range gone {
				rs[i] = recOf(e)
			}
			sort.Slice(rs, func(i, j int) bool { return keyLess(rs[i], rs[j]) })
			p.keys.removeAll(rs, keyLess)
		}
		p.mu.Unlock()
	}
	if n := len(moved); n > 0 {
		s.count.Add(-int64(n))
		mHandedOver.Add(uint64(n))
	}
	return moved
}

// Remove deletes one entry equal to e (key, attribute, value and owner all
// matching) and reports whether one was found — the targeted primitive
// replica repair uses to drop a surplus copy without scanning.
func (s *Store) Remove(e Entry) bool {
	p := s.part(e.Info.Attr)
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := recOf(e)
	if !p.keys.remove(r, keyLess) {
		return false
	}
	p.vals.remove(r, valueLess)
	s.count.Add(-1)
	return true
}

// TakeAll removes and returns everything (used by a departing node), in
// attribute order, each attribute's entries in value order.
func (s *Store) TakeAll() []Entry {
	var all []Entry
	for _, p := range s.partitions() {
		p.mu.Lock()
		all = p.vals.appendEntries(all, p.attr)
		p.vals = seq{}
		p.keys = seq{}
		p.mu.Unlock()
	}
	if n := len(all); n > 0 {
		s.count.Add(-int64(n))
		mHandedOver.Add(uint64(n))
	}
	return all
}

// Snapshot returns a copy of all entries, for tests and diagnostics, in
// attribute order, each attribute's entries in value order.
func (s *Store) Snapshot() []Entry {
	var all []Entry
	for _, p := range s.partitions() {
		p.mu.RLock()
		all = p.vals.appendEntries(all, p.attr)
		p.mu.RUnlock()
	}
	return all
}

// KeyCount is one key-group's population: how many entries the directory
// stores under a single overlay key.
type KeyCount struct {
	Key   uint64
	Count int
}

// KeyCounts returns the directory's key-groups in ascending key order with
// their entry counts. This is the granularity item migration plans at: all
// entries under one key are owned by whichever node the overlay maps that
// key to, so a shed interval can only split between key-groups, never
// inside one. A directory whose entries all share one key (SWORD's
// attribute pool) therefore reports a single indivisible group.
func (s *Store) KeyCounts() []KeyCount {
	counts := make(map[uint64]int)
	for _, p := range s.partitions() {
		p.mu.RLock()
		for _, b := range p.keys.blocks {
			for _, r := range b.recs {
				counts[r.key]++
			}
		}
		p.mu.RUnlock()
	}
	out := make([]KeyCount, 0, len(counts))
	for k, c := range counts {
		out = append(out, KeyCount{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
