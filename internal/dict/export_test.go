package dict

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

// Parents returns the direct generalizations of an item.
func (d *Dictionary) Parents(fid ItemID) []ItemID {
	if !d.Contains(fid) {
		return nil
	}
	return d.parents[fid]
}
