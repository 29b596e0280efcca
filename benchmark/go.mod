module probpref/benchmark

go 1.24

require probpref v0.0.0

replace probpref => ../
