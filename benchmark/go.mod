module github.com/nrp-embed/nrp/benchmark

go 1.22

require github.com/nrp-embed/nrp v0.0.0

replace github.com/nrp-embed/nrp => ../
