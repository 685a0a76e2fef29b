// Package stats implements the cost criteria the paper studies (§1, §6):
// the price of anarchy (PoA [18,17]), the price of stability (PoS [3]), the
// price of malice (PoM [21]), and the new multi-round anarchy cost R(k) for
// repeated games, plus the sample summary (Summarize) the experiment
// harnesses report.
package stats
