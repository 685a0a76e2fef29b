// Package clocksync implements randomized self-stabilizing Byzantine clock
// synchronization in the style of Dolev & Welch [11] — the "Byzantine common
// pulse generator" the paper's middleware is driven by (§3.3, §4).
//
// Model: n processors, at most f < n/3 Byzantine, synchronous pulses,
// M-valued digital clocks. Every pulse each processor broadcasts its clock
// value and applies:
//
//	quorum rule:  if some value v was reported by ≥ n−f processors,
//	              set clock ← (v+1) mod M. (For n > 3f at most one value
//	              can reach quorum in any processor's view, because two
//	              quorums would need 2(n−2f) > n−f honest supporters.)
//	coin rule:    otherwise, with probability 1/2 adopt (w+1) mod M where
//	              w is the plurality value (ties toward the smallest), and
//	              with probability 1/2 reset to 0.
//
// Closure: once all honest clocks agree on v they all see an honest quorum
// forever (Byzantine votes cannot mask honest votes), so they advance in
// lock-step deterministically. Convergence: from any configuration, every
// pulse without a quorum gives the (≤ n−f) unsynchronized processors an
// independent 1/2 chance to land on a common value, so the system reaches
// agreement in expected O(2^(n−f)) pulses — exponential like the randomized
// algorithm of [11], and perfectly tractable at the paper's simulated
// scales. The E-L2 experiment measures the empirical distribution on the
// distributed authority; DESIGN.md §13 records it.
package clocksync
