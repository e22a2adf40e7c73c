// Package dict implements the item dictionary used throughout the miner: the
// vocabulary, the item hierarchy (a directed acyclic graph of generalizations),
// per-item document frequencies (the "f-list" of the paper), and the
// frequency-based item encoding.
//
// Items are identified by ItemID values called fids ("frequency ids"): fid 1 is
// the most frequent item, fid 2 the second most frequent, and so on. The total
// order used for item-based partitioning in the paper ("w1 < w2 iff f(w1) >
// f(w2)") therefore coincides with the numeric order of fids: the pivot item of
// a sequence is simply its maximum fid.
package dict

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ItemID identifies an item by its frequency rank (fid). The zero value None
// is reserved: it never names an item and doubles as the ε sentinel in output
// sets (an ε "item" is smaller than every real item).
type ItemID uint32

// None is the reserved zero ItemID (no item / ε).
const None ItemID = 0

// Dictionary is an immutable vocabulary with hierarchy and document
// frequencies. Build one with a Builder.
type Dictionary struct {
	names     []string // index = fid; names[0] == ""
	fidByName map[string]ItemID
	parents   [][]ItemID // direct generalizations
	children  [][]ItemID
	ancestors [][]ItemID // reflexive-transitive parents, sorted ascending
	docFreq   []int64    // f(w, D): number of input sequences that contain w or a descendant of w

	// freqSorted records whether docFreq is non-increasing in fid. Builder
	// output always is; Load output is whenever the file was written by Save.
	// When it holds, IsFrequent(w, sigma) reduces to w <= MaxFrequentFid(sigma).
	freqSorted bool
}

// Size returns the number of items in the dictionary.
func (d *Dictionary) Size() int { return len(d.names) - 1 }

// Contains reports whether fid names an item of this dictionary.
func (d *Dictionary) Contains(fid ItemID) bool {
	return fid != None && int(fid) < len(d.names)
}

// Name returns the string form of an item.
func (d *Dictionary) Name(fid ItemID) string {
	if !d.Contains(fid) {
		return ""
	}
	return d.names[fid]
}

// Fid looks up an item by name. The second result is false if the item is
// unknown.
func (d *Dictionary) Fid(name string) (ItemID, bool) {
	fid, ok := d.fidByName[name]
	return fid, ok
}

// MustFid is Fid for tests and examples; it panics on unknown items.
func (d *Dictionary) MustFid(name string) ItemID {
	fid, ok := d.Fid(name)
	if !ok {
		panic(fmt.Sprintf("dict: unknown item %q", name))
	}
	return fid
}

// DocFreq returns f(w, D), the number of input sequences that contain w or one
// of its descendants.
func (d *Dictionary) DocFreq(fid ItemID) int64 {
	if !d.Contains(fid) {
		return 0
	}
	return d.docFreq[fid]
}

// IsFrequent reports whether the item meets the minimum support threshold.
func (d *Dictionary) IsFrequent(fid ItemID, sigma int64) bool {
	return d.DocFreq(fid) >= sigma
}

// FrequencySorted reports whether document frequencies are non-increasing in
// fid. This holds for every Builder-built dictionary (fids are assigned by
// descending frequency) and is verified once at load time for dictionaries
// read from files. When it holds, the frequent-item test is a single integer
// comparison against MaxFrequentFid.
func (d *Dictionary) FrequencySorted() bool { return d.freqSorted }

// MaxFrequentFid returns the largest fid w with DocFreq(w) >= sigma, so that
// IsFrequent(w, sigma) iff w <= MaxFrequentFid(sigma); it returns None when no
// item is frequent. Only meaningful when FrequencySorted reports true.
func (d *Dictionary) MaxFrequentFid(sigma int64) ItemID {
	lo, hi := 1, d.Size()
	for lo <= hi {
		mid := (lo + hi) / 2
		if d.docFreq[mid] >= sigma {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ItemID(hi)
}

// Parents returns the direct generalizations of an item.
func (d *Dictionary) Parents(fid ItemID) []ItemID {
	if !d.Contains(fid) {
		return nil
	}
	return d.parents[fid]
}

// Children returns the direct specializations of an item.
func (d *Dictionary) Children(fid ItemID) []ItemID {
	if !d.Contains(fid) {
		return nil
	}
	return d.children[fid]
}

// Ancestors returns anc(w): the item itself plus all items reachable by
// repeated generalization, sorted by ascending fid.
func (d *Dictionary) Ancestors(fid ItemID) []ItemID {
	if !d.Contains(fid) {
		return nil
	}
	return d.ancestors[fid]
}

// HasAncestor reports whether anc ∈ anc(item), i.e. whether item ⇒* anc.
// Every item is an ancestor of itself.
func (d *Dictionary) HasAncestor(item, anc ItemID) bool {
	if !d.Contains(item) || !d.Contains(anc) {
		return false
	}
	_, found := slices.BinarySearch(d.ancestors[item], anc)
	return found
}

// IsA is an alias for HasAncestor: IsA(t, w) reports whether t is w or a
// descendant of w (t ∈ desc(w)).
func (d *Dictionary) IsA(t, w ItemID) bool { return d.HasAncestor(t, w) }

// AncestorsUpTo returns anc(t) ∩ desc(w): the ancestors of t (including t) that
// are descendants of w (including w). This is the output set of a captured
// "w^" item expression. The result is sorted by ascending fid.
func (d *Dictionary) AncestorsUpTo(t, w ItemID) []ItemID {
	if !d.IsA(t, w) {
		return nil
	}
	var out []ItemID
	for _, a := range d.ancestors[t] {
		if d.HasAncestor(a, w) {
			out = append(out, a)
		}
	}
	return out
}

// Leaves returns all items without children.
func (d *Dictionary) Leaves() []ItemID {
	var out []ItemID
	for fid := ItemID(1); int(fid) < len(d.names); fid++ {
		if len(d.children[fid]) == 0 {
			out = append(out, fid)
		}
	}
	return out
}

// MaxAncestors returns the largest number of proper ancestors of any item
// (Table II, "Max. ancestors").
func (d *Dictionary) MaxAncestors() int {
	max := 0
	for fid := ItemID(1); int(fid) < len(d.names); fid++ {
		if n := len(d.ancestors[fid]) - 1; n > max {
			max = n
		}
	}
	return max
}

// MeanAncestors returns the mean number of proper ancestors per item
// (Table II, "Mean ancestors").
func (d *Dictionary) MeanAncestors() float64 {
	if d.Size() == 0 {
		return 0
	}
	total := 0
	for fid := ItemID(1); int(fid) < len(d.names); fid++ {
		total += len(d.ancestors[fid]) - 1
	}
	return float64(total) / float64(d.Size())
}

// NumFrequent returns the number of items with document frequency >= sigma.
func (d *Dictionary) NumFrequent(sigma int64) int {
	n := 0
	for fid := ItemID(1); int(fid) < len(d.names); fid++ {
		if d.docFreq[fid] >= sigma {
			n++
		}
	}
	return n
}

// EncodeSequence converts item names to fids. Unknown items yield an error.
func (d *Dictionary) EncodeSequence(items []string) ([]ItemID, error) {
	out := make([]ItemID, len(items))
	for i, s := range items {
		fid, ok := d.fidByName[s]
		if !ok {
			return nil, fmt.Errorf("dict: unknown item %q", s)
		}
		out[i] = fid
	}
	return out, nil
}

// DecodeSequence converts fids back to item names.
func (d *Dictionary) DecodeSequence(seq []ItemID) []string {
	out := make([]string, len(seq))
	for i, fid := range seq {
		out[i] = d.Name(fid)
	}
	return out
}

// DecodeString renders a sequence of fids as a space-separated string, which
// is how mined patterns are reported.
func (d *Dictionary) DecodeString(seq []ItemID) string {
	return strings.Join(d.DecodeSequence(seq), " ")
}

// Save writes the dictionary in a simple line-oriented text format:
//
//	name<TAB>docFreq<TAB>parent1,parent2,...
//
// Items are written in fid order so that Load reproduces identical fids.
func (d *Dictionary) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for fid := ItemID(1); int(fid) < len(d.names); fid++ {
		parents := make([]string, 0, len(d.parents[fid]))
		for _, p := range d.parents[fid] {
			parents = append(parents, d.names[p])
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\n", d.names[fid], d.docFreq[fid], strings.Join(parents, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a dictionary previously written by Save. Item order in the file
// determines fids (first line = fid 1).
func Load(r io.Reader) (*Dictionary, error) {
	type entry struct {
		name    string
		freq    int64
		parents []string
	}
	var entries []entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) < 2 {
			return nil, fmt.Errorf("dict: malformed line %q", line)
		}
		freq, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dict: bad frequency in line %q: %v", line, err)
		}
		e := entry{name: parts[0], freq: freq}
		if len(parts) >= 3 && parts[2] != "" {
			e.parents = strings.Split(parts[2], ",")
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d := &Dictionary{
		names:     make([]string, 1, len(entries)+1),
		fidByName: make(map[string]ItemID, len(entries)),
		parents:   make([][]ItemID, 1, len(entries)+1),
		children:  make([][]ItemID, 1, len(entries)+1),
		docFreq:   make([]int64, 1, len(entries)+1),
	}
	for _, e := range entries {
		fid := ItemID(len(d.names))
		if _, dup := d.fidByName[e.name]; dup {
			return nil, fmt.Errorf("dict: duplicate item %q", e.name)
		}
		d.names = append(d.names, e.name)
		d.fidByName[e.name] = fid
		d.parents = append(d.parents, nil)
		d.children = append(d.children, nil)
		d.docFreq = append(d.docFreq, e.freq)
	}
	for i, e := range entries {
		fid := ItemID(i + 1)
		for _, pn := range e.parents {
			p, ok := d.fidByName[pn]
			if !ok {
				return nil, fmt.Errorf("dict: item %q has unknown parent %q", e.name, pn)
			}
			d.parents[fid] = append(d.parents[fid], p)
			d.children[p] = append(d.children[p], fid)
		}
	}
	if err := d.computeAncestors(); err != nil {
		return nil, err
	}
	return d, nil
}

// computeAncestors fills the reflexive-transitive ancestor sets and checks
// that the hierarchy is acyclic.
func (d *Dictionary) computeAncestors() error {
	n := len(d.names)
	d.ancestors = make([][]ItemID, n)
	state := make([]uint8, n) // 0 = unvisited, 1 = in progress, 2 = done
	var visit func(fid ItemID) error
	visit = func(fid ItemID) error {
		switch state[fid] {
		case 1:
			return fmt.Errorf("dict: hierarchy cycle involving item %q", d.names[fid])
		case 2:
			return nil
		}
		state[fid] = 1
		set := map[ItemID]struct{}{fid: {}}
		for _, p := range d.parents[fid] {
			if err := visit(p); err != nil {
				return err
			}
			for _, a := range d.ancestors[p] {
				set[a] = struct{}{}
			}
		}
		anc := make([]ItemID, 0, len(set))
		for a := range set {
			anc = append(anc, a)
		}
		sort.Slice(anc, func(i, j int) bool { return anc[i] < anc[j] })
		d.ancestors[fid] = anc
		state[fid] = 2
		return nil
	}
	for fid := ItemID(1); int(fid) < n; fid++ {
		if err := visit(fid); err != nil {
			return err
		}
	}
	d.freqSorted = true
	for fid := 2; fid < n; fid++ {
		if d.docFreq[fid] > d.docFreq[fid-1] {
			d.freqSorted = false
			break
		}
	}
	return nil
}

// Builder accumulates the hierarchy and document frequencies of a dataset and
// produces an immutable Dictionary with frequency-ordered fids.
//
// Typical use:
//
//	b := dict.NewBuilder()
//	b.AddItem("a1", "A")           // declare hierarchy edges
//	b.AddSequence([]string{"a1", "c", "d", "c", "b"})
//	d, err := b.Build()
type Builder struct {
	ids      map[string]int
	names    []string
	parents  [][]int
	docFreq  []int64
	numSeqs  int64
	scratch  map[int]struct{} // per-sequence dedup
	finished bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{ids: make(map[string]int), scratch: make(map[int]struct{})}
}

func (b *Builder) intern(name string) int {
	if id, ok := b.ids[name]; ok {
		return id
	}
	id := len(b.names)
	b.ids[name] = id
	b.names = append(b.names, name)
	b.parents = append(b.parents, nil)
	b.docFreq = append(b.docFreq, 0)
	return id
}

// AddItem declares an item and (optionally) its direct parents. Items may be
// declared repeatedly; parent lists accumulate (duplicates are ignored).
func (b *Builder) AddItem(name string, parents ...string) {
	id := b.intern(name)
	for _, p := range parents {
		pid := b.intern(p)
		dup := false
		for _, existing := range b.parents[id] {
			if existing == pid {
				dup = true
				break
			}
		}
		if !dup && pid != id {
			b.parents[id] = append(b.parents[id], pid)
		}
	}
}

// AddSequence records one input sequence for document-frequency counting.
// Each item and each of its (transitive) ancestors is counted at most once per
// sequence. Unknown items are interned implicitly (without parents).
func (b *Builder) AddSequence(items []string) {
	b.numSeqs++
	clear(b.scratch)
	var mark func(id int)
	mark = func(id int) {
		if _, seen := b.scratch[id]; seen {
			return
		}
		b.scratch[id] = struct{}{}
		for _, p := range b.parents[id] {
			mark(p)
		}
	}
	for _, it := range items {
		mark(b.intern(it))
	}
	for id := range b.scratch {
		b.docFreq[id]++
	}
}

// NumSequences returns the number of sequences seen so far.
func (b *Builder) NumSequences() int64 { return b.numSeqs }

// Build assigns fids by descending document frequency (ties broken by name)
// and returns the immutable Dictionary. The Builder must not be reused.
func (b *Builder) Build() (*Dictionary, error) {
	if b.finished {
		return nil, errors.New("dict: Builder.Build called twice")
	}
	b.finished = true

	order := make([]int, len(b.names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if b.docFreq[a] != b.docFreq[c] {
			return b.docFreq[a] > b.docFreq[c]
		}
		return b.names[a] < b.names[c]
	})

	fidOf := make([]ItemID, len(b.names))
	d := &Dictionary{
		names:     make([]string, len(b.names)+1),
		fidByName: make(map[string]ItemID, len(b.names)),
		parents:   make([][]ItemID, len(b.names)+1),
		children:  make([][]ItemID, len(b.names)+1),
		docFreq:   make([]int64, len(b.names)+1),
	}
	for rank, id := range order {
		fid := ItemID(rank + 1)
		fidOf[id] = fid
		d.names[fid] = b.names[id]
		d.fidByName[b.names[id]] = fid
		d.docFreq[fid] = b.docFreq[id]
	}
	for id, ps := range b.parents {
		fid := fidOf[id]
		for _, p := range ps {
			pf := fidOf[p]
			d.parents[fid] = append(d.parents[fid], pf)
			d.children[pf] = append(d.children[pf], fid)
		}
	}
	for fid := ItemID(1); int(fid) < len(d.names); fid++ {
		sort.Slice(d.parents[fid], func(i, j int) bool { return d.parents[fid][i] < d.parents[fid][j] })
		sort.Slice(d.children[fid], func(i, j int) bool { return d.children[fid][i] < d.children[fid][j] })
	}
	if err := d.computeAncestors(); err != nil {
		return nil, err
	}
	return d, nil
}

// AppendPackedKey appends the canonical packed encoding of a fid sequence to
// buf: four little-endian bytes per item, the fingerprint the distributed
// miners' combiners group equal sequences by.
func AppendPackedKey(buf []byte, seq []ItemID) []byte {
	for _, v := range seq {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// HashItems is the canonical hash of a fid sequence, an FNV-1a style fold
// over the item values, for open-addressing tables keyed by item slices.
func HashItems(seq []ItemID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range seq {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// PivotOf returns the pivot item of a sequence: its maximum (least frequent)
// item, or None for an empty sequence.
func PivotOf(seq []ItemID) ItemID {
	var max ItemID
	for _, it := range seq {
		if it > max {
			max = it
		}
	}
	return max
}
