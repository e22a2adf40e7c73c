// Package lash implements a specialized distributed miner for the constraint
// class of LASH (Beedkar & Gemulla, SIGMOD'15): maximum-gap and
// maximum-length constraints with item-hierarchy generalization. It plays the
// role of the LASH comparator in the paper's Fig. 12 ("LASH setting"): a
// less general algorithm that does not need an FST and against which the
// generalization overhead of D-SEQ and D-CAND is measured.
//
// Like MG-FSM and LASH it uses item-based partitioning with sequence
// representation and specialized rewrites: items that cannot contribute to a
// pivot sequence are blanked out, leading/trailing blanks are trimmed and
// long blank runs are collapsed (they only need to remain unspannable under
// the gap constraint).
package lash

import (
	"sort"

	"seqmine/internal/dict"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
)

// Constraint is the LASH-setting constraint: subsequences of length
// MinLength..MaxLength whose consecutive items are at most MaxGap positions
// apart in the input, where each subsequence item is the input item itself or
// (with Hierarchy) one of its ancestors.
type Constraint struct {
	MaxGap    int
	MaxLength int
	MinLength int
	Hierarchy bool
}

// blank marks rewritten-away positions; it never matches an item.
const blank = dict.None

// Mine runs the distributed specialized miner, alone in this process, and
// returns the frequent sequences together with the engine metrics. The job has
// no codec, so the run fails when cfg bounds the shuffle.
func Mine(d *dict.Dictionary, db [][]dict.ItemID, sigma int64, c Constraint, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
	if c.MinLength <= 0 {
		c.MinLength = 1
	}
	job := mapreduce.Job[[]dict.ItemID, dict.ItemID, []dict.ItemID, miner.Pattern]{
		Map: func(T []dict.ItemID, emit func(dict.ItemID, []dict.ItemID)) {
			for _, k := range potentialPivots(d, T, sigma, c) {
				emit(k, rewrite(d, T, k, sigma, c))
			}
		},
		Reduce: func(k dict.ItemID, seqs [][]dict.ItemID, emit func(miner.Pattern)) {
			for _, p := range minePartition(d, seqs, sigma, c, k) {
				emit(p)
			}
		},
		Hash:   func(k dict.ItemID) uint64 { return mapreduce.HashUint64(uint64(k)) },
		SizeOf: func(_ dict.ItemID, seq []dict.ItemID) int { return 2*len(seq) + 2 },
	}
	out, metrics, err := mapreduce.Run(db, cfg, job, nil)
	if err != nil {
		return nil, metrics, err
	}
	miner.SortPatterns(out)
	return out, metrics, nil
}

// outputsOf returns the possible subsequence items for input item t: t itself
// (if frequent) plus, with hierarchy generalization, its frequent ancestors,
// optionally restricted to items <= pivot.
func outputsOf(d *dict.Dictionary, t dict.ItemID, sigma int64, c Constraint, pivot dict.ItemID) []dict.ItemID {
	if t == blank {
		return nil
	}
	var out []dict.ItemID
	if c.Hierarchy {
		for _, a := range d.Ancestors(t) {
			if d.IsFrequent(a, sigma) && (pivot == dict.None || a <= pivot) {
				out = append(out, a)
			}
		}
		return out
	}
	if d.IsFrequent(t, sigma) && (pivot == dict.None || t <= pivot) {
		out = append(out, t)
	}
	return out
}

// potentialPivots returns the frequent items that could be the pivot of a
// subsequence of T, i.e. the frequent (ancestor) items producible from T.
func potentialPivots(d *dict.Dictionary, T []dict.ItemID, sigma int64, c Constraint) []dict.ItemID {
	set := map[dict.ItemID]bool{}
	for _, t := range T {
		for _, w := range outputsOf(d, t, sigma, c, dict.None) {
			set[w] = true
		}
	}
	out := make([]dict.ItemID, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rewrite blanks out items that cannot contribute to a pivot sequence, trims
// leading and trailing blanks and collapses blank runs longer than MaxGap+1
// (they only need to stay unspannable).
func rewrite(d *dict.Dictionary, T []dict.ItemID, pivot dict.ItemID, sigma int64, c Constraint) []dict.ItemID {
	out := make([]dict.ItemID, 0, len(T))
	blankRun := 0
	for _, t := range T {
		if len(outputsOf(d, t, sigma, c, pivot)) == 0 {
			blankRun++
			if len(out) == 0 {
				continue // leading blank
			}
			if blankRun > c.MaxGap+1 {
				continue // collapse long runs
			}
			out = append(out, blank)
			continue
		}
		blankRun = 0
		out = append(out, t)
	}
	// Trim trailing blanks.
	for len(out) > 0 && out[len(out)-1] == blank {
		out = out[:len(out)-1]
	}
	return out
}

// posting is the position of the last matched item of the current prefix in
// one partition sequence.
type posting struct {
	seq int
	pos int
}

// minePartition grows prefixes over the partition sequences. With a pivot it
// only reports sequences containing the pivot item (whose maximum item is then
// exactly the pivot because larger items are never used for expansion).
func minePartition(d *dict.Dictionary, seqs [][]dict.ItemID, sigma int64, c Constraint, pivot dict.ItemID) []miner.Pattern {
	m := &gapMiner{dict: d, seqs: seqs, sigma: sigma, c: c, pivot: pivot}
	root := make(map[dict.ItemID][]posting)
	for s, T := range seqs {
		seen := map[posting]map[dict.ItemID]bool{}
		for p, t := range T {
			for _, w := range outputsOf(d, t, sigma, c, pivot) {
				key := posting{seq: s, pos: p}
				if seen[key] == nil {
					seen[key] = map[dict.ItemID]bool{}
				}
				if seen[key][w] {
					continue
				}
				seen[key][w] = true
				root[w] = append(root[w], key)
			}
		}
	}
	m.expandAll(nil, root)
	return m.out
}

type gapMiner struct {
	dict  *dict.Dictionary
	seqs  [][]dict.ItemID
	sigma int64
	c     Constraint
	pivot dict.ItemID
	out   []miner.Pattern
}

// support counts the distinct sequences among the postings.
func (m *gapMiner) support(ps []posting) int64 {
	var s int64
	last := -1
	for _, p := range ps {
		if p.seq != last {
			s++
			last = p.seq
		}
	}
	return s
}

// expandAll recurses into every sufficiently supported expansion.
func (m *gapMiner) expandAll(prefix []dict.ItemID, expansions map[dict.ItemID][]posting) {
	items := make([]dict.ItemID, 0, len(expansions))
	for w := range expansions {
		items = append(items, w)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, w := range items {
		ps := expansions[w]
		if m.support(ps) < m.sigma {
			continue
		}
		m.expand(append(prefix, w), ps)
	}
}

func (m *gapMiner) expand(prefix []dict.ItemID, ps []posting) {
	freq := m.support(ps)
	if len(prefix) >= m.c.MinLength && len(prefix) <= m.c.MaxLength &&
		(m.pivot == dict.None || containsItem(prefix, m.pivot)) {
		m.out = append(m.out, miner.Pattern{Items: append([]dict.ItemID(nil), prefix...), Freq: freq})
	}
	if len(prefix) >= m.c.MaxLength {
		return
	}
	next := map[dict.ItemID][]posting{}
	for _, p := range ps {
		T := m.seqs[p.seq]
		limit := p.pos + 1 + m.c.MaxGap
		if limit >= len(T) {
			limit = len(T) - 1
		}
		seen := map[posting]map[dict.ItemID]bool{}
		for j := p.pos + 1; j <= limit; j++ {
			for _, w := range outputsOf(m.dict, T[j], m.sigma, m.c, m.pivot) {
				key := posting{seq: p.seq, pos: j}
				if seen[key] == nil {
					seen[key] = map[dict.ItemID]bool{}
				}
				if seen[key][w] {
					continue
				}
				seen[key][w] = true
				next[w] = append(next[w], key)
			}
		}
	}
	// Deduplicate postings per item (different source postings may reach the
	// same target position).
	for w, list := range next {
		next[w] = dedupPostings(list)
	}
	m.expandAll(prefix, next)
}

func dedupPostings(ps []posting) []posting {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].seq != ps[j].seq {
			return ps[i].seq < ps[j].seq
		}
		return ps[i].pos < ps[j].pos
	})
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

func containsItem(seq []dict.ItemID, w dict.ItemID) bool {
	for _, it := range seq {
		if it == w {
			return true
		}
	}
	return false
}
