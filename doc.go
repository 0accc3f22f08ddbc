// Package cellfi is a from-scratch Go reproduction of "Towards
// unlicensed cellular networks in TV white spaces" (CoNEXT 2017): the
// CellFi architecture — an LTE-based unlicensed cellular network for
// TV white spaces with PAWS-compliant channel selection and fully
// decentralized intra-channel interference management — together with
// every substrate its evaluation depends on and a harness that
// regenerates each table and figure of the paper.
//
// Start with README.md for orientation, DESIGN.md for the system
// inventory and modelling decisions, and EXPERIMENTS.md for the
// paper-versus-measured scorecard. The public surface lives under
// internal/ (this is a research reproduction, not a semver-stable
// library); cmd/cellfi is the one command (`cellfi experiments`
// regenerates the evaluation) and `make bench-all` (bench/README.md)
// is the one benchmark.
package cellfi
