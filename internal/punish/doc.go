// Package punish implements the executive service's punishment schemes
// (paper §3.4): disconnection (cf. the BAR-games discussion [6]), reputation
// decay, and monetary deposits. All schemes share one interface so the
// E-PUN experiment can compare how quickly each neutralizes a manipulator
// and how much damage accrues meanwhile.
//
// A scheme holds each agent's standing and nothing else: one value per
// agent, its ledger, not a record of the sanctions that led there (those
// are in the judicial verdicts). A built-in scheme's ledger encodes
// (AppendLedger) to a width fixed by the agent count.
package punish
