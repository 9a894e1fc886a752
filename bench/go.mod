module github.com/shrink-tm/shrink/bench

go 1.24

require github.com/shrink-tm/shrink v0.0.0

replace github.com/shrink-tm/shrink => ../
