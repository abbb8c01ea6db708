module ariadne/benchmark

go 1.22

require ariadne v0.0.0

replace ariadne => ../
