// Package bap implements the Byzantine agreement protocol ("BAP") the game
// authority is built on (paper §3.3): the exponential-information-gathering
// (EIG) protocol of Lamport, Shostak and Pease [19] for n > 3f without
// authentication, and interactive consistency (vector agreement) built from
// n parallel instances of it (IC, the engine the distributed driver runs in
// every phase).
//
// An agreement value is bytes. IC copies each value it sees into a
// per-phase pool that interns it as a 4-byte id, so the EIG trees and the
// pairs in transit are pointer-free and compare ids, and a phase allocates
// nothing once its arenas are warm.
//
// EIG message size is exponential in f; the paper cites Garay–Moses [16] as
// the polynomial alternative. At the simulated scales (n ≤ 13, f ≤ 4) EIG is
// simpler and behaviourally identical, which is what matters for the
// middleware (see DESIGN.md §4, substitutions).
package bap
