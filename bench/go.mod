module gpurel/bench

go 1.22

require gpurel v0.0.0

replace gpurel => ../
