package paws

import (
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// requestParams is what the request scanner keeps of a body's params:
// the fields a handler reads. The scanner checks every field of every
// request type for its JSON type (so a body it accepts decodes without
// error into whichever type the method takes) but copies only these.
type requestParams struct {
	Serial     string
	DeviceType string
	Location   GeoLocation
	Spectra    []FrequencyRange
}

// scanMaxDepth bounds the nesting the scanner follows; deeper bodies
// take the two-step decode.
const scanMaxDepth = 32

// scanner decodes JSON-RPC bodies in one strict pass, in both
// directions: a request (scan: the envelope keys jsonrpc, method,
// params and id, and params into the union of the request types'
// fields) and a getSpectrum response (spectrumResp: the envelope keys
// jsonrpc, result, error and id, and result into an
// AvailSpectrumResp). It accepts a body only when the two-step
// encoding/json decode (the envelope with params or result kept raw,
// then those into their own type) would yield the same value, and
// reports false otherwise, leaving the body to that decode. It
// refuses:
//
//   - a backslash, a control byte or a byte >= 0x80 inside a string
//     (escapes and Unicode case folding are where encoding/json's key
//     matching gets subtle);
//   - null anywhere;
//   - a known key repeated in one object, and a key that only
//     ASCII-case-folds to a known key;
//   - a value of the wrong JSON type for its field, and a number that
//     strconv.ParseFloat or ParseInt rejects (the calls encoding/json
//     makes, so "id":1e3 is refused);
//   - in a request, absent params, a jsonrpc other than "2.0" and an
//     unknown method (the reference answers those with an error);
//   - in a response, an error member with any value, and a result
//     that is absent or not an object (the reference classifies
//     those);
//   - nesting deeper than scanMaxDepth, invalid JSON and trailing
//     non-space bytes.
//
// Unknown keys are skipped after checking that their values are valid
// JSON, as encoding/json ignores them too. A request scan allocates
// only the serial and an unfamiliar device type; method, version and
// the usual device types match constants, and Spectra reuses the
// scanner's backing array.
type scanner struct {
	b      []byte
	i      int
	method string
	id     int64
	p      requestParams
	// lr bounds the server's read of a request body; it lives here
	// so that the pooled scanner carries it instead of each request
	// allocating one.
	lr io.LimitedReader
}

// scanPool recycles scanners, so that Spectra's backing array is
// reused across requests rather than allocated per notify.
var scanPool = sync.Pool{New: func() any { return new(scanner) }}

// Field names; a key's index is its bit in object's duplicate mask.
var (
	envelopeKeys = []string{"jsonrpc", "method", "params", "id"}
	paramsKeys   = []string{"deviceDesc", "location", "antennaHeight", "deviceOwner", "spectra"}
	deviceKeys   = []string{"serialNumber", "manufacturerId", "modelId", "etsiEnDeviceType", "rulesetIds"}
	locationKeys = []string{"latitude", "longitude", "uncertainty"}
	rangeKeys    = []string{"startHz", "stopHz", "maxEirpDbm", "channel"}
	methods      = []string{MethodInit, MethodGetSpectrum, MethodNotifyUse, MethodRegister}
	deviceTypes  = []string{"FIXED", "MODE_1", "MODE_2"}

	responseKeys = []string{"jsonrpc", "result", "error", "id"}
	availKeys    = []string{"timestamp", "rulesetInfo", "spectrumSchedules", "needsSpectrumReport"}
	rulesetKeys  = []string{"authority", "rulesetId", "maxLocationChange", "maxPollingSecs"}
	scheduleKeys = []string{"startTime", "stopTime", "spectra"}
)

// scan decodes body into s.method, s.id and s.p, reporting whether it
// took the body.
func (s *scanner) scan(body []byte) bool {
	*s = scanner{b: body, p: requestParams{Spectra: s.p.Spectra[:0]}}
	s.ws()
	seen, ok := s.object(envelopeKeys, func(k int) bool {
		switch k {
		case 0:
			v, ok := s.str()
			return ok && string(v) == "2.0"
		case 1:
			v, ok := s.str()
			s.method = match(v, methods)
			return ok && s.method != ""
		case 2:
			return s.params()
		case 3:
			var ok bool
			s.id, ok = s.int()
			return ok
		}
		return s.skip(1)
	})
	s.ws()
	const required = 0b111 // jsonrpc, method, params; an absent id is 0
	return ok && s.i == len(s.b) && seen&required == required
}

func (s *scanner) params() bool {
	_, ok := s.object(paramsKeys, func(k int) bool {
		switch k {
		case 0:
			return s.deviceDesc()
		case 1:
			return s.location()
		case 2:
			_, ok := s.float()
			return ok
		case 3:
			_, ok := s.str()
			return ok
		case 4:
			var ok bool
			s.p.Spectra, ok = s.ranges(s.p.Spectra, 2)
			return ok
		}
		return s.skip(2)
	})
	return ok
}

func (s *scanner) deviceDesc() bool {
	_, ok := s.object(deviceKeys, func(k int) bool {
		switch k {
		case 0:
			v, ok := s.str()
			s.p.Serial = string(v)
			return ok
		case 1, 2:
			_, ok := s.str()
			return ok
		case 3:
			v, ok := s.str()
			if s.p.DeviceType = match(v, deviceTypes); s.p.DeviceType == "" {
				s.p.DeviceType = string(v)
			}
			return ok
		case 4:
			return s.array(func() bool {
				_, ok := s.str()
				return ok
			})
		}
		return s.skip(3)
	})
	return ok
}

func (s *scanner) location() bool {
	loc := &s.p.Location
	_, ok := s.object(locationKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			loc.Latitude, ok = s.float()
		case 1:
			loc.Longitude, ok = s.float()
		case 2:
			loc.UncertaintyM, ok = s.float()
		default:
			ok = s.skip(3)
		}
		return ok
	})
	return ok
}

// ranges scans the array of frequency ranges at s.i, which sits at
// nesting depth depth, appending each range to dst.
func (s *scanner) ranges(dst []FrequencyRange, depth int) ([]FrequencyRange, bool) {
	ok := s.array(func() bool {
		var fr FrequencyRange
		_, ok := s.object(rangeKeys, func(k int) bool {
			var ok bool
			switch k {
			case 0:
				fr.StartHz, ok = s.float()
			case 1:
				fr.StopHz, ok = s.float()
			case 2:
				fr.MaxEIRPdBm, ok = s.float()
			case 3:
				fr.Channel, ok = s.intField()
			default:
				ok = s.skip(depth + 2)
			}
			return ok
		})
		dst = append(dst, fr)
		return ok
	})
	return dst, ok
}

// spectrumResp decodes a JSON-RPC response body carrying an
// AVAIL_SPECTRUM_RESP into out, reporting whether it took the body.
// out is zeroed first, as the two-step decode zeroes its result, and
// again when the scan is refused midway, so that nothing a refused
// body decoded reaches the fallback's caller. The decoded value owns
// every byte it keeps: strings and spectra are copied out of body and
// out of the scanner's scratch.
func (s *scanner) spectrumResp(body []byte, out *AvailSpectrumResp) bool {
	*s = scanner{b: body, p: requestParams{Spectra: s.p.Spectra[:0]}}
	*out = AvailSpectrumResp{}
	s.ws()
	seen, ok := s.object(responseKeys, func(k int) bool {
		switch k {
		case 0:
			_, ok := s.str()
			return ok
		case 1:
			return s.availSpectrum(out)
		case 2:
			return false // an error member, even null, takes the reference
		case 3:
			_, ok := s.int()
			return ok
		}
		return s.skip(1)
	})
	s.ws()
	const result = 0b10
	if ok && s.i == len(s.b) && seen&result != 0 {
		return true
	}
	*out = AvailSpectrumResp{}
	return false
}

func (s *scanner) availSpectrum(out *AvailSpectrumResp) bool {
	_, ok := s.object(availKeys, func(k int) bool {
		switch k {
		case 0:
			return s.time(&out.Timestamp)
		case 1:
			return s.rulesetInfo(&out.RulesetInfo)
		case 2:
			// Non-nil when empty, as encoding/json decodes [].
			out.Schedules = []SpectrumSchedule{}
			return s.array(func() bool {
				out.Schedules = append(out.Schedules, SpectrumSchedule{})
				return s.schedule(&out.Schedules[len(out.Schedules)-1])
			})
		case 3:
			out.NeedsSpectrumReport = s.literal("true")
			return out.NeedsSpectrumReport || s.literal("false")
		}
		return s.skip(2)
	})
	return ok
}

func (s *scanner) rulesetInfo(r *RulesetInfo) bool {
	_, ok := s.object(rulesetKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			var v []byte
			v, ok = s.str()
			r.Authority = string(v)
		case 1:
			var v []byte
			v, ok = s.str()
			r.RulesetID = string(v)
		case 2:
			r.MaxLocationChangeM, ok = s.float()
		case 3:
			r.MaxPollingSecs, ok = s.intField()
		default:
			ok = s.skip(3)
		}
		return ok
	})
	return ok
}

func (s *scanner) schedule(sch *SpectrumSchedule) bool {
	_, ok := s.object(scheduleKeys, func(k int) bool {
		switch k {
		case 0:
			return s.time(&sch.StartTime)
		case 1:
			return s.time(&sch.StopTime)
		case 2:
			// Scan into the pooled scratch, then copy out at the exact
			// length: one allocation, and non-nil when empty.
			var ok bool
			s.p.Spectra, ok = s.ranges(s.p.Spectra[:0], 4)
			sch.Spectra = append(make([]FrequencyRange, 0, len(s.p.Spectra)), s.p.Spectra...)
			return ok
		}
		return s.skip(4)
	})
	return ok
}

// time decodes the JSON string at s.i into t by the call encoding/json
// makes, (*time.Time).UnmarshalJSON on the quoted literal, so offsets,
// fractional seconds and the strict RFC 3339 checks agree.
func (s *scanner) time(t *time.Time) bool {
	start := s.i
	if _, ok := s.str(); !ok {
		return false
	}
	return t.UnmarshalJSON(s.b[start:s.i]) == nil
}

// object scans the object at s.i, calling member with each key's index
// in keys, or -1 for an unknown key, with s.i on the member's value.
// It fails on a known key seen before and on a key that matches one in
// keys only under ASCII case folding, and returns the keys it saw as a
// bit mask.
func (s *scanner) object(keys []string, member func(k int) bool) (seen uint32, ok bool) {
	if !s.consume('{') {
		return 0, false
	}
	s.ws()
	if s.consume('}') {
		return 0, true
	}
	for {
		key, ok := s.str()
		if !ok {
			return seen, false
		}
		k := -1
		for i, name := range keys {
			if string(key) == name {
				k = i
				break
			}
			if foldEqual(key, name) {
				return seen, false
			}
		}
		if k >= 0 {
			if seen&(1<<k) != 0 {
				return seen, false
			}
			seen |= 1 << k
		}
		s.ws()
		if !s.consume(':') {
			return seen, false
		}
		s.ws()
		if !member(k) {
			return seen, false
		}
		s.ws()
		switch {
		case s.consume(','):
			s.ws()
		case s.consume('}'):
			return seen, true
		default:
			return seen, false
		}
	}
}

// array scans the array at s.i, calling elem with s.i on each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	s.ws()
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		s.ws()
		switch {
		case s.consume(','):
			s.ws()
		case s.consume(']'):
			return true
		default:
			return false
		}
	}
}

// skip scans past the value at s.i, which sits at nesting depth
// depth, checking that it is valid JSON the scanner accepts.
func (s *scanner) skip(depth int) bool {
	if depth >= scanMaxDepth || s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '{':
		_, ok := s.object(nil, func(int) bool { return s.skip(depth + 1) })
		return ok
	case c == '[':
		return s.array(func() bool { return s.skip(depth + 1) })
	case c == '"':
		_, ok := s.str()
		return ok
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	default:
		_, ok := s.number()
		return ok
	}
}

func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// str scans the string at s.i and returns its contents, which are its
// bytes: a string with an escape, a control byte or a non-ASCII byte
// fails.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// number scans the JSON number at s.i and returns its text.
func (s *scanner) number() ([]byte, bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		if i = digits(b, i); i == j {
			return nil, false
		}
	}
	v := b[s.i:i]
	s.i = i
	return v, true
}

// int scans a JSON number as encoding/json decodes it into an int64.
func (s *scanner) int() (int64, bool) {
	v, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	return n, err == nil
}

// intField scans a JSON number as encoding/json decodes it into an
// int, which refuses a value that overflows it.
func (s *scanner) intField() (int, bool) {
	n, ok := s.int()
	return int(n), ok && int64(int(n)) == n
}

// float scans a JSON number as encoding/json decodes it into a float64.
func (s *scanner) float() (float64, bool) {
	v, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(v), 64)
	return f, err == nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// match returns the constant in set that v spells, "" for none.
func match(v []byte, set []string) string {
	for _, c := range set {
		if string(v) == c {
			return c
		}
	}
	return ""
}

// foldEqual reports whether ASCII key equals name under ASCII case
// folding, the folding encoding/json applies to ASCII keys.
func foldEqual(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := range key {
		a, b := key[i], name[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}
