module seqmine/benchmark

go 1.24

require seqmine v0.0.0

replace seqmine => ../
