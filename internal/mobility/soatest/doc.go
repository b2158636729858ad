// Package soatest is the differential test harness pinning the
// bit-identity contract between the two forms of every mobility model:
// the array-of-structs reference agents (mobility.Model.NewAgent) and the
// structure-of-arrays populations (mobility.BulkStepper.NewPopulation).
//
// The harness drives both forms in lockstep from identical per-agent RNG
// streams and requires exact equality — positions to the last bit, dirty
// bits, and the full hidden kinematic state exposed through
// mobility.Probe (trip progress, leg caches, unit directions, pause
// clocks, turn/way-point counters) — across a randomized matrix of
// models, initialization modes, speeds, pause bounds and seeds, and
// under arbitrary StepRange decompositions. A second layer holds whole
// sim.Worlds to a test-local oracle — the AoS agents seeded from the
// world's per-agent PCG streams, stepped one by one, with a from-scratch
// neighbor-index rebuild after every step — across worker counts, tiled
// worlds, mid-run Reset and both index-maintenance regimes, comparing
// trajectories and the index's full CSR state. Committed golden
// trajectory fixtures pin both forms to fixed bytes.
//
// The package itself exports nothing; it exists so the differential
// tests have a home outside package mobility's own unit tests and can
// exercise the public API exactly as sim does.
package soatest
