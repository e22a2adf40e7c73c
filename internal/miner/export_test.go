package miner

// TasksReaching returns the number of prefixes p keeps with their projected
// databases whose support reaches sigma and whose items are all frequent at
// sigma — the tasks of p.Mine at sigma — and depth, the length of those
// prefixes: 3, or 2 where the bound kept level 2 (0 if p keeps nothing).
func (p *Prepared) TasksReaching(sigma int64) (tasks, depth int) {
	for i := range p.state.prefixes {
		n := &p.state.prefixes[i]
		depth = len(n.prefix())
		frequent := true
		for _, w := range n.prefix() {
			frequent = frequent && p.m.dict.IsFrequent(w, sigma)
		}
		if frequent && n.support >= sigma {
			tasks++
		}
	}
	for i := range p.kept {
		depth = max(depth, len(p.kept[i].prefix())+1)
	}
	return tasks, depth
}
