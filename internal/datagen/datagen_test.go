package datagen_test

import (
	"reflect"
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/fst"
)

func TestNYTGenerator(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.NumSequences != 500 {
		t.Errorf("NumSequences = %d, want 500", s.NumSequences)
	}
	if s.MeanLength < 5 || s.MeanLength > 40 {
		t.Errorf("implausible mean sentence length %f", s.MeanLength)
	}
	// Hierarchy items referenced by the constraints must exist.
	for _, name := range []string{"ENTITY", "PER", "ORG", "LOC", "VERB", "NOUN", "PREP", "DET", "ADV", "ADJ", "be"} {
		if _, ok := db.Dict.Fid(name); !ok {
			t.Errorf("item %q missing from NYT-like dictionary", name)
		}
	}
	// POS tags must never appear literally in the data but must have positive
	// document frequency through their descendants.
	if db.Dict.DocFreq(db.Dict.MustFid("VERB")) == 0 {
		t.Error("VERB should have positive document frequency")
	}
	if db.Dict.DocFreq(db.Dict.MustFid("ENTITY")) == 0 {
		t.Error("ENTITY should have positive document frequency")
	}
	// Hierarchy depth: token -> lemma -> POS gives two proper ancestors.
	if db.Dict.MaxAncestors() < 2 {
		t.Errorf("MaxAncestors = %d, want >= 2", db.Dict.MaxAncestors())
	}
	// The text-mining constraints must compile against this dictionary and
	// match at least one sentence.
	for _, pat := range []string{
		".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*",
		".*(ENTITY^ be^=) DET? [ADV?] [ADJ?] (NOUN).*",
		".*(.^){3} NOUN.*",
	} {
		f, err := fst.Compile(pat, db.Dict)
		if err != nil {
			t.Errorf("Compile(%q): %v", pat, err)
			continue
		}
		matched := 0
		for _, T := range db.Sequences {
			if f.CanAccept(T) {
				matched++
			}
		}
		if matched == 0 {
			t.Errorf("constraint %q matches no generated sentence", pat)
		}
	}
}

func TestNYTDeterministic(t *testing.T) {
	a, _ := datagen.NYTRaw(datagen.NYTConfig{NumSentences: 50, Seed: 7})
	b, _ := datagen.NYTRaw(datagen.NYTConfig{NumSentences: 50, Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Error("NYT generator must be deterministic for a fixed seed")
	}
	c, _ := datagen.NYTRaw(datagen.NYTConfig{NumSentences: 50, Seed: 8})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should produce different data")
	}
}

func TestAmazonGenerator(t *testing.T) {
	db, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.NumSequences != 500 {
		t.Errorf("NumSequences = %d, want 500", s.NumSequences)
	}
	if s.MeanLength < 2 || s.MeanLength > 15 {
		t.Errorf("implausible mean review-sequence length %f", s.MeanLength)
	}
	for _, name := range []string{"Electr", "Book", "MusicInstr", "DigitalCamera", "Headphones", "BagsCases"} {
		if _, ok := db.Dict.Fid(name); !ok {
			t.Errorf("item %q missing from AMZN-like dictionary", name)
		}
	}
	// The DAG variant has products with two parents, so mean ancestors exceeds
	// the forest variant's.
	forest, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: 500, Seed: 2, Forest: true})
	if err != nil {
		t.Fatal(err)
	}
	if db.Dict.MeanAncestors() <= forest.Dict.MeanAncestors() {
		t.Errorf("DAG hierarchy should have more ancestors on average: %f vs %f",
			db.Dict.MeanAncestors(), forest.Dict.MeanAncestors())
	}
	// Recommendation constraints must compile and match.
	for _, pat := range []string{
		".*(Electr^)[.{0,2}(Electr^)]{1,4}.*",
		".*(Book)[.{0,2}(Book)]{1,4}.*",
		".*DigitalCamera[.{0,3}(.^)]{1,4}.*",
		".*(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}.*",
	} {
		f, err := fst.Compile(pat, db.Dict)
		if err != nil {
			t.Errorf("Compile(%q): %v", pat, err)
			continue
		}
		matched := 0
		for _, T := range db.Sequences {
			if f.CanAccept(T) {
				matched++
			}
		}
		if matched == 0 {
			t.Errorf("constraint %q matches no generated customer sequence", pat)
		}
	}
}

func TestClueWebGenerator(t *testing.T) {
	db, err := datagen.ClueWeb(datagen.ClueWebConfig{NumSentences: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.NumSequences != 300 {
		t.Errorf("NumSequences = %d, want 300", s.NumSequences)
	}
	if s.MaxAncestors != 0 {
		t.Errorf("CW-like data must have no hierarchy, MaxAncestors = %d", s.MaxAncestors)
	}
	if s.MeanLength < 8 || s.MeanLength > 40 {
		t.Errorf("implausible mean sentence length %f", s.MeanLength)
	}
	// The collocation "most of the" must be reasonably frequent so that T2
	// n-gram mining finds it.
	most := db.Dict.MustFid("most")
	if db.Dict.DocFreq(most) < 20 {
		t.Errorf("collocation word unexpectedly rare: f(most) = %d", db.Dict.DocFreq(most))
	}
}

func TestGeneratorsDefaultConfig(t *testing.T) {
	if _, err := datagen.NYT(datagen.NYTConfig{}); err != nil {
		t.Error(err)
	}
	if _, err := datagen.Amazon(datagen.AmazonConfig{}); err != nil {
		t.Error(err)
	}
	if _, err := datagen.ClueWeb(datagen.ClueWebConfig{}); err != nil {
		t.Error(err)
	}
}
