// heapmark is a module of its own because the benchmark driver's contract
// wants a compiled benchmark to carry its own build file; the heap/ prefix
// keeps heap's internal packages importable. The root's `go test ./...`
// therefore does not run these tests: `go -C bench test ./...` does.
module heap/bench

go 1.22

require heap v0.0.0

replace heap => ../
