package paws

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cellfi/internal/pawsdb"
	"cellfi/internal/spectrum"
)

// Server is a PAWS white-space database server. It serves the RFC 7545
// JSON-RPC methods over HTTP on top of a pawsdb.DB (geospatial index,
// response cache, lease store, metrics); the request path is
// lock-free, so concurrent queries scale with cores instead of
// serializing on one mutex. It implements http.Handler.
type Server struct {
	db      *pawsdb.DB
	ruleset RulesetInfo
	// rulesetJSON is the ruleset premarshaled once at construction;
	// the getSpectrum fast path splices it into hand-assembled
	// responses instead of re-encoding it per request.
	rulesetJSON []byte
	// Now supplies the database's notion of time; simulations override
	// it to drive virtual time. Defaults to time.Now. Set before
	// serving traffic.
	Now func() time.Time
}

// NewServer returns a PAWS server over the given incumbent registry,
// announcing an ETSI EN 301 598 ruleset (the one the paper's Nominet
// database implements). The registry is wrapped in a pawsdb.DB with
// default options; use NewServerWith to configure the database layer.
func NewServer(reg *spectrum.Registry) *Server {
	return NewServerWith(pawsdb.New(reg, pawsdb.Options{}))
}

// NewServerWith returns a PAWS server over an explicitly configured
// spectrum-database core.
func NewServerWith(db *pawsdb.DB) *Server {
	s := &Server{
		db: db,
		ruleset: RulesetInfo{
			Authority:          "gb",
			RulesetID:          "ETSI-EN-301-598-2014",
			MaxLocationChangeM: 50,
			MaxPollingSecs:     3600,
		},
		Now: time.Now,
	}
	s.rulesetJSON, _ = json.Marshal(s.ruleset)
	return s
}

// Registry exposes the backing registry. Callers that mutate it while
// the server is live should do so under Lock/Unlock.
func (s *Server) Registry() *spectrum.Registry { return s.db.Registry() }

// DB exposes the spectrum-database core (index, cache, leases,
// metrics).
func (s *Server) DB() *pawsdb.DB { return s.db }

// Lock and Unlock guard external registry mutation (e.g. an experiment
// revoking a channel mid-run). Queries keep serving the pre-mutation
// snapshot until the mutation lands.
func (s *Server) Lock()   { s.db.Lock() }
func (s *Server) Unlock() { s.db.Unlock() }

// bufPool recycles the scratch buffers of the request hot path: the
// request-body read, the hand-assembled getSpectrum result, and the
// response envelope. At 50k+ queries/sec the per-request garbage these
// would otherwise generate dominates the profile.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// jsonContentType is the one Content-Type value both ends send,
// assigned rather than Set so that no message allocates a copy.
// net/http only reads header values and replaces, never writes, a
// header's slice; its capacity of 1 makes an Add copy it too.
var jsonContentType = []string{"application/json"}

// rawResult wraps a pooled, fully marshaled JSON result. Handlers on
// the hot path return it to tell ServeHTTP the encoding is already
// done; the buffer goes back to the pool after the envelope is
// written.
type rawResult struct{ buf *bytes.Buffer }

// notifyResult is the one SPECTRUM_USE_NOTIFY result, the empty
// NotifyUseResp, encoded once; held in an interface so that returning
// it allocates nothing.
var notifyResult any = json.RawMessage(`{}`)

// ServeHTTP handles one JSON-RPC request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "paws: POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	met := s.db.Metrics()
	bb := bufPool.Get().(*bytes.Buffer)
	bb.Reset()
	defer bufPool.Put(bb)
	sc := scanPool.Get().(*scanner)
	defer scanPool.Put(sc)
	sc.lr = io.LimitedReader{R: r.Body, N: 1 << 20}
	_, err := bb.ReadFrom(&sc.lr)
	sc.lr.R = nil
	if err != nil {
		http.Error(w, "paws: read error", http.StatusBadRequest)
		met.Errors.Add(1)
		return
	}
	p := &sc.p
	var raw json.RawMessage
	ok := sc.scan(bb.Bytes())
	method, id := sc.method, sc.id
	if !ok {
		// The two-step decode: the envelope with params kept raw,
		// then (in dispatch) the params into the method's own type.
		var req rpcRequest
		if err := json.Unmarshal(bb.Bytes(), &req); err != nil {
			writeRPC(w, rpcResponse{JSONRPC: "2.0", Error: &RPCError{ErrCodeInvalidValue, "malformed JSON-RPC"}, ID: 0})
			met.Errors.Add(1)
			return
		}
		if req.JSONRPC != "2.0" {
			writeRPC(w, rpcResponse{JSONRPC: "2.0", Error: &RPCError{ErrCodeVersion, "jsonrpc must be 2.0"}, ID: req.ID})
			met.Errors.Add(1)
			return
		}
		p, method, id, raw = nil, req.Method, req.ID, req.Params
	}

	result, rpcErr := s.dispatch(method, p, raw)

	resp := rpcResponse{JSONRPC: "2.0", ID: id}
	var recycle *bytes.Buffer
	switch {
	case rpcErr != nil:
		resp.Error = rpcErr
		met.Errors.Add(1)
	default:
		switch r := result.(type) {
		case rawResult:
			resp.Result = r.buf.Bytes()
			recycle = r.buf
		case json.RawMessage:
			resp.Result = r
		default:
			if raw, err := json.Marshal(result); err != nil {
				resp.Error = &RPCError{ErrCodeInvalidValue, "encode failure"}
			} else {
				resp.Result = raw
			}
		}
	}
	writeRPC(w, resp)
	if recycle != nil {
		bufPool.Put(recycle)
	}
	met.Latency.Observe(time.Since(start))
}

// writeRPC writes the JSON-RPC envelope. Success envelopes are
// assembled by hand from parts that are already compact JSON — the
// bytes are identical to json.Encoder output (which would re-validate
// and re-compact the embedded result on every response), without the
// second pass over the body. Error envelopes take the encoder path so
// message escaping stays exactly the stdlib's.
func writeRPC(w http.ResponseWriter, resp rpcResponse) {
	w.Header()["Content-Type"] = jsonContentType
	if resp.Error == nil && resp.Result != nil && resp.JSONRPC == "2.0" {
		eb := bufPool.Get().(*bytes.Buffer)
		eb.Reset()
		eb.WriteString(`{"jsonrpc":"2.0","result":`)
		eb.Write(resp.Result)
		eb.WriteString(`,"id":`)
		eb.Write(strconv.AppendInt(eb.AvailableBuffer(), resp.ID, 10))
		eb.WriteString("}\n")
		_, _ = w.Write(eb.Bytes())
		bufPool.Put(eb)
		return
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// dispatch hands the request to its method's handler. p holds the
// params when the scanner took the body; otherwise raw holds them and
// they are decoded here into the method's own request type, which
// keeps each method's error text and ignores fields only other
// methods read.
func (s *Server) dispatch(method string, p *requestParams, raw json.RawMessage) (any, *RPCError) {
	var dev DeviceDescriptor
	if p != nil {
		dev = DeviceDescriptor{SerialNumber: p.Serial, DeviceType: p.DeviceType}
	}
	switch method {
	case MethodInit:
		if p != nil {
			return s.handleInit(InitReq{DeviceDesc: dev, Location: p.Location})
		}
		var r InitReq
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad INIT_REQ"}
		}
		return s.handleInit(r)
	case MethodRegister:
		if p != nil {
			return s.handleRegister(RegisterReq{DeviceDesc: dev, Location: p.Location})
		}
		var r RegisterReq
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad REGISTRATION_REQ"}
		}
		return s.handleRegister(r)
	case MethodGetSpectrum:
		if p != nil {
			return s.handleGetSpectrum(AvailSpectrumReq{DeviceDesc: dev, Location: p.Location})
		}
		var r AvailSpectrumReq
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad AVAIL_SPECTRUM_REQ"}
		}
		return s.handleGetSpectrum(r)
	case MethodNotifyUse:
		if p != nil {
			return s.handleNotifyUse(NotifyUseReq{DeviceDesc: dev, Location: p.Location, Spectra: p.Spectra})
		}
		var r NotifyUseReq
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "bad SPECTRUM_USE_NOTIFY"}
		}
		return s.handleNotifyUse(r)
	default:
		return nil, &RPCError{ErrCodeUnsupported, fmt.Sprintf("unsupported method %q", method)}
	}
}

func (s *Server) handleInit(p InitReq) (any, *RPCError) {
	if p.DeviceDesc.SerialNumber == "" {
		return nil, &RPCError{ErrCodeMissing, "deviceDesc.serialNumber required"}
	}
	return InitResp{RulesetInfos: []RulesetInfo{s.ruleset}}, nil
}

func (s *Server) handleRegister(p RegisterReq) (any, *RPCError) {
	if p.DeviceDesc.SerialNumber == "" {
		return nil, &RPCError{ErrCodeMissing, "deviceDesc.serialNumber required"}
	}
	return RegisterResp{RulesetInfos: []RulesetInfo{s.ruleset}}, nil
}

func (s *Server) handleGetSpectrum(p AvailSpectrumReq) (any, *RPCError) {
	if p.DeviceDesc.SerialNumber == "" {
		return nil, &RPCError{ErrCodeMissing, "deviceDesc.serialNumber required"}
	}
	loc := FromGeo(p.Location)
	now := s.Now()
	q := s.db.Query(loc, p.DeviceDesc.DeviceType, s.ruleset.RulesetID, now)

	// Validity window: Query stamps every channel with the same lease
	// expiry, now plus the registry's lease duration.
	stop := now.Add(s.db.Registry().LeaseDuration)

	// Record the grant in the lease store: renewal when the device
	// already holds a live lease, fresh grant otherwise.
	if len(q.Avail) > 0 {
		s.db.Leases().Acquire(p.DeviceDesc.SerialNumber, p.DeviceDesc.DeviceType, q.Cell, stop, now)
	}

	// Spectra bytes are a pure function of the blocked mask, so the
	// rendering cache is keyed on the mask rather than the cache entry:
	// boundary cells (which never get an entry) still reuse renderings,
	// and distinct cells with the same availability share one.
	var raw json.RawMessage
	slot := q.Spectra
	if slot != nil {
		if v := slot.Load(); v != nil {
			raw = v.(json.RawMessage)
		}
	}
	if raw == nil {
		spectra := make([]FrequencyRange, 0, len(q.Avail))
		for _, ci := range q.Avail {
			spectra = append(spectra, FrequencyRange{
				StartHz:    ci.CenterFreqHz - ci.WidthHz/2,
				StopHz:     ci.CenterFreqHz + ci.WidthHz/2,
				MaxEIRPdBm: ci.MaxEIRPdBm,
				Channel:    ci.Channel,
			})
		}
		b, err := json.Marshal(spectra)
		if err != nil {
			return nil, &RPCError{ErrCodeInvalidValue, "encode failure"}
		}
		raw = b
		if slot != nil {
			slot.Store(raw)
		}
	}

	// Assemble the AVAIL_SPECTRUM_RESP by hand, splicing in the
	// premarshaled ruleset and spectra. The bytes are identical to
	// json.Marshal of the same response with its spectra kept raw
	// (server_db_test.go's availSpectrumRespRaw pins this) — without
	// reflecting over it and re-compacting the embedded raw segments on
	// every request.
	rb := bufPool.Get().(*bytes.Buffer)
	rb.Reset()
	rb.WriteString(`{"timestamp":`)
	writeTimeJSON(rb, now)
	rb.WriteString(`,"rulesetInfo":`)
	rb.Write(s.rulesetJSON)
	rb.WriteString(`,"spectrumSchedules":[{"startTime":`)
	writeTimeJSON(rb, now)
	rb.WriteString(`,"stopTime":`)
	writeTimeJSON(rb, stop)
	rb.WriteString(`,"spectra":`)
	rb.Write(raw)
	rb.WriteString(`}],"needsSpectrumReport":true}`)
	return rawResult{buf: rb}, nil
}

// writeTimeJSON appends t exactly as encoding/json marshals time.Time:
// a quoted RFC 3339 timestamp with nanoseconds trimmed.
func writeTimeJSON(b *bytes.Buffer, t time.Time) {
	b.WriteByte('"')
	b.Write(t.AppendFormat(b.AvailableBuffer(), time.RFC3339Nano))
	b.WriteByte('"')
}

func (s *Server) handleNotifyUse(p NotifyUseReq) (any, *RPCError) {
	if p.DeviceDesc.SerialNumber == "" {
		return nil, &RPCError{ErrCodeMissing, "deviceDesc.serialNumber required"}
	}
	// Validate the claimed use against current availability: a
	// compliant device never reports spectrum it may not use.
	loc := FromGeo(p.Location)
	now := s.Now()
	met := s.db.Metrics()
	for _, fr := range p.Spectra {
		if !s.db.ChannelAvailable(fr.Channel, loc, now) {
			met.NotifyRejected.Add(1)
			return nil, &RPCError{ErrCodeInvalidValue,
				fmt.Sprintf("channel %d not available at reported location", fr.Channel)}
		}
	}
	met.NotifyOK.Add(1)
	// An empty report is the cessation notice a device sends when it
	// stops transmitting (cellfi ap's shutdown): free its lease now
	// rather than at expiry.
	if len(p.Spectra) == 0 {
		s.db.Leases().Release(p.DeviceDesc.SerialNumber, now)
	}
	return notifyResult, nil
}
