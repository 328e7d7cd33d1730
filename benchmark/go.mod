module crackstore/benchmark

go 1.22

require crackstore v0.0.0

replace crackstore => ../
