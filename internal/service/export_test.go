package service

import "seqmine/internal/obs"

// Series sums the values of the registry series of family name in entries
// whose labels include the given pairs ("k1", "v1", ...): a counter's or
// gauge's value, a histogram's sample count. ok reports whether any series
// matched.
func Series(entries []obs.SnapshotEntry, name string, labels ...string) (v int64, ok bool) {
next:
	for _, e := range entries {
		if e.Name != name {
			continue
		}
		for i := 0; i+1 < len(labels); i += 2 {
			if e.Labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		v += e.Value
		ok = true
	}
	return v, ok
}

// InFlight returns the tenant's currently admitted queries.
func (t *Tenant) InFlight() int64 {
	if t == nil {
		return 0
	}
	return t.inflight.Load()
}
