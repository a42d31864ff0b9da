module ngramstats/benchmark

go 1.24

require ngramstats v0.0.0

replace ngramstats => ../
