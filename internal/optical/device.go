package optical

import "fmt"

// This file models the ROADM datapath of the paper's hardware prototype
// (§4.1, Figure 6): MUX → splitter → fiber → WSS → EDFA → DEMUX. The only
// behaviour that matters for correctness is the optical power budget: the
// end-to-end loss must not exceed the transceiver budget after amplifier
// gain, otherwise a provisioned circuit would not actually carry packets.
// internal/emu checks it once when it builds its data plane: every emulated
// circuit shares this one datapath design.

// Typical per-element losses in dB from the paper.
const (
	LossMuxDB      = 5.0
	LossSplitterDB = 10.5
	LossFiberDB    = 0.5
	LossWSSDB      = 7.0
	LossDemuxDB    = 5.0

	// TransceiverBudgetDB is the optical power budget of the short-reach
	// transceivers (~16 dB): the maximum loss a signal can survive.
	TransceiverBudgetDB = 16.0

	// DefaultEDFAGainDB is the fixed-gain setting compensating the loss.
	DefaultEDFAGainDB = 18.0
)

// ROADMPath describes one traversal of the emulated ROADM datapath.
type ROADMPath struct {
	EDFAGainDB float64
}

// LossDB returns the total element loss of the path before amplification.
func (r ROADMPath) LossDB() float64 {
	return LossMuxDB + LossSplitterDB + LossFiberDB + LossWSSDB + LossDemuxDB
}

// NetLossDB returns loss after EDFA gain.
func (r ROADMPath) NetLossDB() float64 {
	return r.LossDB() - r.EDFAGainDB
}

// Validate reports an error if the net loss exceeds the transceiver power
// budget, i.e. the receiving transceiver could not recover the signal.
func (r ROADMPath) Validate() error {
	if n := r.NetLossDB(); n > TransceiverBudgetDB {
		return fmt.Errorf("optical: net loss %.1f dB exceeds transceiver budget %.1f dB", n, TransceiverBudgetDB)
	}
	return nil
}
