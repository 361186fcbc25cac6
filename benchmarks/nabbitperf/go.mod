module nabbitc/benchmarks/nabbitperf

go 1.24

require nabbitc v0.0.0

replace nabbitc => ../..
