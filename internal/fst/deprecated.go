package fst

// Flat is the name FST had while a compiled FST was flattened on demand.
//
// Deprecated: use FST. Kept only for benchmark/, which is frozen until its
// next revision.
type Flat = FST

// Flatten returns f: Compile already builds the flat tables.
//
// Deprecated: use f. Kept only for benchmark/, which is frozen until its
// next revision.
func (f *FST) Flatten() *FST { return f }
