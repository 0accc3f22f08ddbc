// Package paws implements the Protocol to Access White-Space databases
// (PAWS, RFC 7545) subset that CellFi's channel-selection component
// uses: the INIT handshake, AVAIL_SPECTRUM queries and SPECTRUM_USE
// notifications, carried as JSON-RPC 2.0 over HTTP.
//
// The server side wraps a spectrum.Registry (the incumbent database);
// the client side is what a CellFi access point embeds. Both accept an
// injectable clock so simulations can drive virtual time through the
// real wire protocol.
package paws

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// JSON-RPC method names defined by RFC 7545.
const (
	MethodInit        = "spectrum.paws.init"
	MethodGetSpectrum = "spectrum.paws.getSpectrum"
	MethodNotifyUse   = "spectrum.paws.notifySpectrumUse"
	MethodRegister    = "spectrum.paws.register"
)

// PAWS error codes (RFC 7545 Table 1, subset).
const (
	ErrCodeVersion         = -101
	ErrCodeUnsupported     = -102
	ErrCodeOutsideCoverage = -104
	ErrCodeMissing         = -201
	ErrCodeInvalidValue    = -202
	ErrCodeNotRegistered   = -302
)

// rpcRequest is the JSON-RPC 2.0 envelope.
type rpcRequest struct {
	JSONRPC string          `json:"jsonrpc"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
	ID      int64           `json:"id"`
}

// RPCRequest builds a marshal-ready JSON-RPC 2.0 request envelope for
// the given method. Load generators use it to pre-marshal request
// bodies once and replay them; the Client builds its own envelopes.
func RPCRequest(method string, params json.RawMessage, id int64) any {
	return rpcRequest{JSONRPC: "2.0", Method: method, Params: params, ID: id}
}

type rpcResponse struct {
	JSONRPC string          `json:"jsonrpc"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *RPCError       `json:"error,omitempty"`
	ID      int64           `json:"id"`
}

// RPCError is a JSON-RPC / PAWS error.
type RPCError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *RPCError) Error() string {
	return fmt.Sprintf("paws: error %d: %s", e.Code, e.Message)
}

// DeviceDescriptor identifies a white-space device (RFC 7545 5.2).
type DeviceDescriptor struct {
	SerialNumber   string `json:"serialNumber"`
	ManufacturerID string `json:"manufacturerId,omitempty"`
	ModelID        string `json:"modelId,omitempty"`
	// DeviceType is "FIXED" or "MODE_1"/"MODE_2" per ETSI/FCC rules.
	DeviceType string   `json:"etsiEnDeviceType,omitempty"`
	RulesetIDs []string `json:"rulesetIds,omitempty"`
}

// GeoLocation is a WGS84 point (RFC 7545 5.1). CellFi simulations work
// in projected metres; ToGeo/FromGeo convert against a reference origin.
type GeoLocation struct {
	Latitude  float64 `json:"latitude"`
	Longitude float64 `json:"longitude"`
	// UncertaintyM is the location uncertainty in metres; mobile
	// clients served under the AP's generic parameters use the cell
	// radius here (Section 4.2).
	UncertaintyM float64 `json:"uncertainty,omitempty"`
}

// Origin anchors the simulation's metre grid on the globe. The default
// is Cambridge, UK — the paper's deployment area.
var Origin = GeoLocation{Latitude: 52.2053, Longitude: 0.1218}

const metersPerDegLat = 111320.0

// ToGeo converts a simulation point in metres to a GeoLocation.
func ToGeo(p geo.Point) GeoLocation {
	lat := Origin.Latitude + p.Y/metersPerDegLat
	lon := Origin.Longitude + p.X/(metersPerDegLat*math.Cos(Origin.Latitude*math.Pi/180))
	return GeoLocation{Latitude: lat, Longitude: lon}
}

// FromGeo converts a GeoLocation back to simulation metres.
func FromGeo(g GeoLocation) geo.Point {
	y := (g.Latitude - Origin.Latitude) * metersPerDegLat
	x := (g.Longitude - Origin.Longitude) * metersPerDegLat * math.Cos(Origin.Latitude*math.Pi/180)
	return geo.Point{X: x, Y: y}
}

// InitReq is the INIT_REQ message.
type InitReq struct {
	DeviceDesc DeviceDescriptor `json:"deviceDesc"`
	Location   GeoLocation      `json:"location"`
}

// InitResp is the INIT_RESP message.
type InitResp struct {
	RulesetInfos []RulesetInfo `json:"rulesetInfos"`
}

// RulesetInfo describes the regulatory ruleset the database enforces.
type RulesetInfo struct {
	Authority string `json:"authority"`
	RulesetID string `json:"rulesetId"`
	// MaxLocationChangeM: device must re-query after moving this far.
	MaxLocationChangeM float64 `json:"maxLocationChange"`
	// MaxPollingSecs: maximum seconds between availability re-checks.
	MaxPollingSecs int `json:"maxPollingSecs"`
}

// RegisterReq registers a fixed device (required before getSpectrum for
// FIXED devices under FCC rules).
type RegisterReq struct {
	DeviceDesc DeviceDescriptor `json:"deviceDesc"`
	Location   GeoLocation      `json:"location"`
	Owner      string           `json:"deviceOwner,omitempty"`
}

// RegisterResp acknowledges registration.
type RegisterResp struct {
	RulesetInfos []RulesetInfo `json:"rulesetInfos"`
}

// AvailSpectrumReq is the AVAIL_SPECTRUM_REQ message.
type AvailSpectrumReq struct {
	DeviceDesc DeviceDescriptor `json:"deviceDesc"`
	Location   GeoLocation      `json:"location"`
	// AntennaHeightM is the height above ground of the transmit
	// antenna (the paper's rooftop cells sit at 15 m).
	AntennaHeightM float64 `json:"antennaHeight,omitempty"`
}

// FrequencyRange is a [start, stop) band with a power cap.
type FrequencyRange struct {
	StartHz    float64 `json:"startHz"`
	StopHz     float64 `json:"stopHz"`
	MaxEIRPdBm float64 `json:"maxEirpDbm"`
	// Channel is the TV channel number (informative convenience the
	// real protocol derives from the frequency range).
	Channel int `json:"channel"`
}

// SpectrumSchedule binds frequency ranges to a validity window.
type SpectrumSchedule struct {
	StartTime time.Time        `json:"startTime"`
	StopTime  time.Time        `json:"stopTime"`
	Spectra   []FrequencyRange `json:"spectra"`
}

// AvailSpectrumResp is the AVAIL_SPECTRUM_RESP message.
type AvailSpectrumResp struct {
	Timestamp   time.Time          `json:"timestamp"`
	RulesetInfo RulesetInfo        `json:"rulesetInfo"`
	Schedules   []SpectrumSchedule `json:"spectrumSchedules"`
	// NeedsSpectrumReport asks the device to send SPECTRUM_USE_NOTIFY.
	NeedsSpectrumReport bool `json:"needsSpectrumReport"`
}

// Channels flattens the first schedule into per-channel info sorted by
// channel number, the form the channel selector consumes.
func (r *AvailSpectrumResp) Channels() []spectrum.ChannelInfo {
	if len(r.Schedules) == 0 {
		return nil
	}
	s := r.Schedules[0]
	out := make([]spectrum.ChannelInfo, 0, len(s.Spectra))
	for _, fr := range s.Spectra {
		out = append(out, spectrum.ChannelInfo{
			Channel:      fr.Channel,
			CenterFreqHz: (fr.StartHz + fr.StopHz) / 2,
			WidthHz:      fr.StopHz - fr.StartHz,
			MaxEIRPdBm:   fr.MaxEIRPdBm,
			Until:        s.StopTime,
		})
	}
	return out
}

// NotifyUseReq is the SPECTRUM_USE_NOTIFY message: the device reports
// which spectrum it is actually transmitting in.
type NotifyUseReq struct {
	DeviceDesc DeviceDescriptor `json:"deviceDesc"`
	Location   GeoLocation      `json:"location"`
	Spectra    []FrequencyRange `json:"spectra"`
}

// NotifyUseResp acknowledges a use notification.
type NotifyUseResp struct{}
