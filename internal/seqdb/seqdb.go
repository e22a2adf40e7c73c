// Package seqdb provides the in-memory sequence database used by the miners:
// a dictionary plus encoded input sequences, simple text input/output, and
// the dataset statistics reported in Table II of the paper.
package seqdb

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"seqmine/internal/dict"
)

// Database is a sequence database together with its dictionary (vocabulary,
// hierarchy and f-list). Build lays all sequences out in one contiguous
// backing array (Sequences are sub-slices of it), so a full database scan —
// the shape of every mining pass — walks memory linearly instead of chasing
// one heap object per sequence.
type Database struct {
	Dict      *dict.Dictionary
	Sequences [][]dict.ItemID
}

// Hierarchy maps an item name to the names of its direct generalizations.
type Hierarchy map[string][]string

// Build constructs a Database from raw sequences of item names and a
// hierarchy. The dictionary's document frequencies are computed from the
// sequences (the f-list of the paper).
func Build(raw [][]string, hierarchy Hierarchy) (*Database, error) {
	b := dict.NewBuilder()
	for item, parents := range hierarchy {
		b.AddItem(item, parents...)
	}
	for _, seq := range raw {
		b.AddSequence(seq)
	}
	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, seq := range raw {
		total += len(seq)
	}
	backing := make([]dict.ItemID, 0, total)
	db := &Database{Dict: d, Sequences: make([][]dict.ItemID, len(raw))}
	for i, seq := range raw {
		start := len(backing)
		for _, name := range seq {
			fid, ok := d.Fid(name)
			if !ok {
				return nil, fmt.Errorf("seqdb: unknown item %q", name)
			}
			backing = append(backing, fid)
		}
		db.Sequences[i] = backing[start:len(backing):len(backing)]
	}
	return db, nil
}

// NumSequences returns the number of input sequences.
func (db *Database) NumSequences() int { return len(db.Sequences) }

// Sample returns a database containing approximately fraction of the
// sequences (chosen pseudo-randomly with the given seed) sharing the original
// dictionary. Used by the data/weak scalability experiments.
func (db *Database) Sample(fraction float64, seed int64) *Database {
	if fraction >= 1 {
		return db
	}
	rng := rand.New(rand.NewSource(seed))
	out := &Database{Dict: db.Dict}
	for _, s := range db.Sequences {
		if rng.Float64() < fraction {
			out.Sequences = append(out.Sequences, s)
		}
	}
	return out
}

// Stats summarizes a database in the shape of Table II.
type Stats struct {
	NumSequences   int64
	TotalItems     int64
	UniqueItems    int
	MaxLength      int
	MeanLength     float64
	HierarchyItems int
	MaxAncestors   int
	MeanAncestors  float64
}

// Stats computes the Table II statistics of the database.
func (db *Database) Stats() Stats {
	s := Stats{
		NumSequences:   int64(len(db.Sequences)),
		HierarchyItems: db.Dict.Size(),
		MaxAncestors:   db.Dict.MaxAncestors(),
		MeanAncestors:  db.Dict.MeanAncestors(),
	}
	seen := map[dict.ItemID]bool{}
	for _, seq := range db.Sequences {
		s.TotalItems += int64(len(seq))
		if len(seq) > s.MaxLength {
			s.MaxLength = len(seq)
		}
		for _, w := range seq {
			seen[w] = true
		}
	}
	s.UniqueItems = len(seen)
	if s.NumSequences > 0 {
		s.MeanLength = float64(s.TotalItems) / float64(s.NumSequences)
	}
	return s
}

// String renders the statistics as a Table II style row set.
func (s Stats) String() string {
	return fmt.Sprintf("sequences=%d items=%d unique=%d maxLen=%d meanLen=%.1f hierarchyItems=%d maxAnc=%d meanAnc=%.1f",
		s.NumSequences, s.TotalItems, s.UniqueItems, s.MaxLength, s.MeanLength, s.HierarchyItems, s.MaxAncestors, s.MeanAncestors)
}

// ReadFiles loads a database from a sequence file (one sequence per line,
// space-separated items) and an optional hierarchy file
// ("child<TAB>parent1,parent2" per line; empty path for no hierarchy). It is
// the shared loading path of the root API and the service layer's registry.
func ReadFiles(sequencesPath, hierarchyPath string) (*Database, error) {
	sf, err := os.Open(sequencesPath)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	raw, err := ReadSequences(sf)
	if err != nil {
		return nil, err
	}
	hierarchy := Hierarchy{}
	if hierarchyPath != "" {
		hf, err := os.Open(hierarchyPath)
		if err != nil {
			return nil, err
		}
		defer hf.Close()
		hierarchy, err = ReadHierarchy(hf)
		if err != nil {
			return nil, err
		}
	}
	return Build(raw, hierarchy)
}

// WriteSequences writes raw sequences in the text format used by the command
// line tools: one sequence per line, items separated by single spaces. Items
// must not contain spaces or newlines.
func WriteSequences(w io.Writer, raw [][]string) error {
	bw := bufio.NewWriter(w)
	for _, seq := range raw {
		if _, err := fmt.Fprintln(bw, strings.Join(seq, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSequences reads sequences in the WriteSequences format. Empty lines are
// skipped.
func ReadSequences(r io.Reader) ([][]string, error) {
	var out [][]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		out = append(out, strings.Fields(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteHierarchy writes a hierarchy in the text format used by the command
// line tools: "child<TAB>parent1,parent2" per line.
func WriteHierarchy(w io.Writer, h Hierarchy) error {
	bw := bufio.NewWriter(w)
	for child, parents := range h {
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", child, strings.Join(parents, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadHierarchy reads a hierarchy written by WriteHierarchy.
func ReadHierarchy(r io.Reader) (Hierarchy, error) {
	h := Hierarchy{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		var parents []string
		if len(parts) == 2 && parts[1] != "" {
			parents = strings.Split(parts[1], ",")
		}
		h[parts[0]] = parents
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return h, nil
}
