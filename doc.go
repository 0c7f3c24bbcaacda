// Package bass is a reproduction of "BASS: A Resource Orchestrator to
// Account for Vagaries in Network Conditions in Community Wi-Fi Mesh"
// (Sethuraman et al., MIDDLEWARE '24): a bandwidth-aware scheduler,
// network monitor, and migration controller for applications deployed as
// component DAGs on wireless mesh networks, together with the emulation
// substrate, workloads, and experiment harnesses that regenerate every
// table and figure of the paper's evaluation.
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory); runnable entry points are under cmd/ and examples/;
// cmd/benchtab regenerates the paper's tables and figures, and ./bench
// measures the simulator's own speed.
package bass
