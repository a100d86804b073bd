module github.com/daskv/daskv/benchmark

go 1.24

require github.com/daskv/daskv v0.0.0

replace github.com/daskv/daskv => ../
