// Package govp is a virtual-prototype safety-evaluation framework for
// automotive electronics in pure Go: a reproduction of the system
// envisioned by Oetjens et al., "Safety Evaluation of Automotive
// Electronics Using Virtual Prototypes: State of the Art and Research
// Challenges" (DAC 2014).
//
// The framework stacks, bottom-up:
//
//   - internal/sim — a deterministic discrete-event kernel with
//     SystemC (IEEE 1666) scheduling semantics;
//   - internal/tlm — TLM-2.0-style transaction-level modeling with the
//     full abstraction ladder and temporal decoupling;
//   - internal/rtl — gate-level netlists, a levelized evaluator with
//     stuck-at/open fault overlays and a synthesizable circuit library;
//   - internal/uvm — a UVM testbench library (components, phases,
//     scoreboards, objections);
//   - internal/fault, internal/stressor — formal fault descriptors,
//     injector interfaces and the campaign engine;
//   - internal/missionprofile — Mission Profiles with supply-chain
//     refinement and fault-description derivation (the paper's Fig. 2);
//   - internal/safety — FTA and FMEDA (ISO 26262 metrics);
//   - internal/coverage, internal/scenario — fault-space coverage
//     models and Monte-Carlo/weak-spot-guided/novelty strategies;
//   - internal/mdl, internal/mutation — a behavioural model language
//     and mutation analysis for testbench qualification;
//   - internal/ecu, internal/can — a virtual ECU (AE32 ISA, ECC RAM,
//     watchdog, lockstep, RTOS-lite) and a CAN network model;
//   - internal/caps — the CAPS airbag case study (the paper's Fig. 1);
//   - internal/analysis, internal/experiments — outcome classification,
//     fault-tree synthesis from simulation and the E1–E9, F2/F3 and X1–X3
//     reproduction experiments.
//
// The benchmarks in bench_test.go regenerate every experiment; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for paper-vs-
// measured results.
package govp
