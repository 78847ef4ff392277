// The benchmark is a module of its own so that it has its own build file,
// and it is named under pushdowndb/ so that Go lets it import the
// program's internal packages; the replace points at the checkout it sits
// in, which is what it builds and measures.
module pushdowndb/bench

go 1.22

require pushdowndb v0.0.0

replace pushdowndb => ../
