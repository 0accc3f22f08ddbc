package experiments

import (
	"fmt"

	"cellfi/internal/lte"
	"cellfi/internal/phy"
	"cellfi/internal/stats"
	"cellfi/internal/wifi"
)

// Table1 reproduces the paper's Table 1 — the PHY/MAC property
// comparison between 802.11af and LTE — computed from the models'
// actual constants rather than transcribed.
func Table1(seed int64, quick bool) Result {
	af := wifi.Params11af()

	minWiFiRate := 1.0
	for i := 0; i < phy.WiFiMCSCount(); i++ {
		if r := phy.WiFiMCS(i).CodeRate; r < minWiFiRate {
			minWiFiRate = r
		}
	}
	minLTERate := phy.LTECQI(1).CodeRate

	t := &stats.Table{
		Title:   "Table 1: Summary of differences between 802.11af and LTE",
		Headers: []string{"Property", "802.11af", "LTE"},
	}
	t.AddRow("PHY design", "OFDM", "OFDMA")
	t.AddRow("Freq. chunks",
		fmt.Sprintf("%.0f-8 MHz channel", af.ChannelWidthHz/1e6),
		fmt.Sprintf("%.0f kHz resource blocks", lte.RBBandwidthHz/1e3))
	t.AddRow("Min coding rate",
		fmt.Sprintf(">= %.2f", minWiFiRate),
		fmt.Sprintf(">= %.2f", minLTERate))
	t.AddRow("Hybrid ARQ", "no", fmt.Sprintf("yes (up to %d tx)", lte.MaxHARQTransmissions))
	t.AddRow("Access", "CSMA", "scheduled (static)")
	t.AddRow("TX duration",
		fmt.Sprintf("up to %v", af.MaxTXDuration),
		fmt.Sprintf("%v subframes", lte.SubframeDuration))
	t.AddRow("Mode", "uncoordinated", "coordinated")
	t.AddRow("Decode floor (SINR)",
		fmt.Sprintf("%.1f dB", phy.WiFiMinSINRdB),
		fmt.Sprintf("%.1f dB", phy.LTEMinSINRdB))

	return Result{
		ID:     "table1",
		Title:  "Table 1: 802.11af vs LTE properties",
		Tables: []*stats.Table{t},
		Notes: []string{
			note("LTE decodes %.1f dB deeper than Wi-Fi and codes down to rate %.2f vs %.2f — the PHY half of the paper's range argument",
				phy.WiFiMinSINRdB-phy.LTEMinSINRdB, minLTERate, minWiFiRate),
		},
	}
}
