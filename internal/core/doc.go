// Package core implements the paper's primary contribution: the game
// authority middleware (§3). It wires the three services together:
//
//   - legislative — the agents elect the game Γ (rules + cost functions)
//     democratically (robust commit-reveal voting, §3.1);
//   - judicial — every play is audited: legitimate action choice, private
//     and simultaneous choice via commitments, foul-play detection against
//     best responses or committed PRG streams (§3.2, §5);
//   - executive — outcomes are published, choices collected, and agents
//     convicted by the judicial service are punished (§3.4).
//
// Four engines execute the play protocol of §3.3, one per session kind:
//
//   - the trusted engines — PureSession (trusted.go), MixedSession
//     (mixed.go) and RRASupervised (rra.go) — run the same
//     legislate/audit/punish code paths centrally, used for the
//     game-theoretic experiments where tens of thousands of plays are
//     needed;
//   - the distributed engine, DistSession (distributed.go), runs the full
//     protocol over the synchronous network: a self-stabilizing Byzantine
//     clock schedules the phases and every agreement (outcome, commitment
//     set, reveal set, verdict) goes through interactive consistency on
//     the BAP.
//
// NewSession puts the engine of the configured kind behind one driver
// shell (session.go), the package's only Session implementation. The
// shell owns the lock, history, counters and events, and runs every play
// in one fixed order: gate (context, closed) → exclusion snapshot →
// engine step → record in the history ring → counters → events → the
// stage a host attaches (Attach). A play's foul count is playFouls,
// counted once in the shell and handed to the stage.
package core
