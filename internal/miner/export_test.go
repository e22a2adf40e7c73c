package miner

// PairsReaching returns the number of item pairs p keeps whose support
// reaches sigma and whose two items are frequent at sigma: the tasks of
// p.Mine at sigma.
func (p *Prepared) PairsReaching(sigma int64) int {
	n := 0
	for _, pair := range p.state.prefixes {
		if pair.support >= sigma && p.m.dict.IsFrequent(pair.items[0], sigma) && p.m.dict.IsFrequent(pair.items[1], sigma) {
			n++
		}
	}
	return n
}
