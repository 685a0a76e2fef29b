// Package sim implements the paper's §4.1 system model: a synchronous
// distributed system of communicating processors. A common pulse triggers
// each step; a step sends messages to neighbours, receives everything the
// neighbours sent on the same pulse, and updates local state. The global
// configuration is the vector of processor states, observed at pulse
// boundaries when no messages are in transit.
//
// The package provides two execution engines with identical semantics:
//
//   - Lockstep (StepLockstep, Run): a deterministic single-goroutine loop
//     (the reference model; all experiments use it).
//   - Concurrent (StepConcurrent, RunConcurrent, Close): a persistent worker
//     pool steps the processors of each pulse in parallel behind a pulse
//     barrier, using the cores the host has. A property test asserts both
//     engines produce identical executions, pulse for pulse and message
//     for message.
//
// The network holds no engine setting: the caller picks by which method it
// calls (core's distributed driver does, from the processor count).
//
// Both engines recycle the per-destination inbox buffers between pulses,
// so a steady-state pulse allocates only what the processes themselves
// allocate. Two contracts make that sound: a Process must not retain its
// inbox slice (nor an Adversary its honestOutbox) beyond the call that
// received it, and outbox slices are owned by the producing process again
// as soon as the pulse completes.
//
// Byzantine processors are modelled by wrapping an honest process with an
// adversary that may replace its outbox arbitrarily (including equivocating
// — sending different values to different neighbours). Transient faults are
// modelled by corrupting processor state between pulses, which is exactly
// the self-stabilization adversary of §4.1.
package sim
