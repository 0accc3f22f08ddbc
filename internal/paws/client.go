package paws

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/trace"
)

// methodCode maps a JSON-RPC method name to its trace encoding.
func methodCode(method string) int64 {
	switch method {
	case MethodInit:
		return trace.PAWSMethodInit
	case MethodGetSpectrum:
		return trace.PAWSMethodGetSpectrum
	case MethodNotifyUse:
		return trace.PAWSMethodNotify
	default:
		return trace.PAWSMethodOther
	}
}

// defaultHTTPClient is the transport used when Client.HTTPClient is
// nil. Unlike http.DefaultClient it carries a timeout, so a stalled
// database cannot wedge an access point's vacate path indefinitely —
// the ETSI 60-second budget (Section 6.2) leaves no room for hung
// connections. It is also immune to other packages mutating the
// global http.DefaultClient.
var defaultHTTPClient = &http.Client{Timeout: 10 * time.Second}

// maxResponseBytes caps how much of a database response the client
// will buffer. A misbehaving (or malicious) database streaming an
// unbounded body must not OOM an access point; no legitimate PAWS
// answer approaches a mebibyte.
const maxResponseBytes = 1 << 20

// Client is the device-side PAWS implementation a CellFi access point
// embeds. It issues JSON-RPC calls against a database URL.
//
// A single Client manages the access point and all its mobile clients:
// per Section 4.2 of the paper, mobile devices use the AP's generic
// location parameters, so only the AP ever queries the database.
//
// Every call failure is a *paws.Error carrying an ErrorClass, and with
// Retry configured the client absorbs Transient failures behind
// bounded exponential backoff before surfacing one.
type Client struct {
	// URL is the database endpoint.
	URL string
	// Endpoints, when non-empty, is an ordered endpoint list — the
	// primary first, replicas after — and overrides URL. The client
	// pins the first endpoint until FailoverAfter consecutive
	// Transient failures, then advances to the next (wrapping), and
	// probes back toward the primary after the active replica proves
	// healthy (see PrimaryProbeAfter). Non-transient answers — success,
	// regulatory denials, fatal RPC errors — count as healthy: the
	// database answered, the content is someone else's problem.
	Endpoints []string
	// FailoverAfter is the consecutive-Transient-failure threshold
	// that triggers failover; zero means 1 (the ETSI vacate budget is
	// too tight to burn it re-asking a dead primary).
	FailoverAfter int
	// PrimaryProbeAfter is how many consecutive successes on a
	// non-primary endpoint earn one probe of the primary; zero
	// means 8. A failed probe just stays on the replica.
	PrimaryProbeAfter int
	// HTTPClient overrides the transport. When nil, an owned client
	// with a 10-second timeout is used (never http.DefaultClient).
	HTTPClient *http.Client
	// Device identifies this access point.
	Device DeviceDescriptor
	// Retry bounds in-call retries of Transient failures. The zero
	// value is single-shot.
	Retry RetryPolicy
	// CallTimeout is a per-attempt deadline applied via context; zero
	// falls back to the HTTP client's own timeout.
	CallTimeout time.Duration
	// Trace, when non-nil, receives a paws-query record per completed
	// call (after in-call retries); TraceAP tags the owning access
	// point. TraceNow supplies record timestamps — inject a simulated
	// clock to keep trace streams deterministic; nil uses time.Now.
	Trace    trace.Recorder
	TraceAP  int32
	TraceNow func() time.Time

	nextID int64

	retryMu  sync.Mutex
	retryRNG *rand.Rand

	epMu      sync.Mutex
	epIdx     int
	epFails   int
	epOK      int
	failovers uint64
}

// failoverAfter / probeAfter apply the documented zero-value defaults.
func (c *Client) failoverAfter() int {
	if c.FailoverAfter > 0 {
		return c.FailoverAfter
	}
	return 1
}

func (c *Client) probeAfter() int {
	if c.PrimaryProbeAfter > 0 {
		return c.PrimaryProbeAfter
	}
	return 8
}

// pickEndpoint chooses the URL and endpoint index for one attempt:
// the active endpoint, or the primary when the active replica has
// earned a health probe.
func (c *Client) pickEndpoint() (string, int) {
	if len(c.Endpoints) == 0 {
		return c.URL, 0
	}
	c.epMu.Lock()
	defer c.epMu.Unlock()
	idx := c.epIdx
	if idx != 0 && c.epOK >= c.probeAfter() {
		c.epOK = 0
		idx = 0 // spend the earned probe on the primary
	}
	return c.Endpoints[idx], idx
}

// endpointResult feeds an attempt's outcome back into the failover
// state machine. transient means the endpoint itself failed (network,
// 5xx, torn body); anything the database answered counts as healthy.
func (c *Client) endpointResult(idx int, transient bool) {
	if len(c.Endpoints) == 0 {
		return
	}
	c.epMu.Lock()
	defer c.epMu.Unlock()
	switch {
	case !transient:
		if idx != c.epIdx {
			// Primary probe succeeded: fail back.
			c.epIdx = idx
		}
		c.epFails = 0
		if c.epIdx != 0 {
			c.epOK++
		}
	case idx != c.epIdx:
		// Failed primary probe; stay on the replica (the probe budget
		// was already spent in pickEndpoint).
	default:
		c.epFails++
		if c.epFails >= c.failoverAfter() {
			c.epIdx = (c.epIdx + 1) % len(c.Endpoints)
			c.epFails, c.epOK = 0, 0
			c.failovers++
		}
	}
}

// Failovers returns how many times the client advanced to another
// endpoint after exhausting the failure threshold.
func (c *Client) Failovers() uint64 {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return c.failovers
}

// jitterU draws from the client's seeded jitter stream, creating it on
// first use from Retry.Seed.
func (c *Client) jitterU() float64 {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	if c.retryRNG == nil {
		seed := c.Retry.Seed
		if seed == 0 {
			seed = 1
		}
		c.retryRNG = rand.New(rand.NewSource(seed))
	}
	return c.retryRNG.Float64()
}

// NewClient returns a client for the given database URL and device
// serial number, declaring a FIXED (mast-mounted) device type.
func NewClient(url, serial string) *Client {
	return &Client{
		URL: url,
		Device: DeviceDescriptor{
			SerialNumber:   serial,
			ManufacturerID: "cellfi",
			ModelID:        "ap-e40",
			DeviceType:     "FIXED",
			RulesetIDs:     []string{"ETSI-EN-301-598-2014"},
		},
	}
}

// call runs one JSON-RPC method with the client's retry policy:
// Transient failures are retried up to Retry.MaxAttempts with
// exponential backoff and jitter; Fatal and RegulatoryDeny failures
// surface immediately.
func (c *Client) call(method string, params, result any) error {
	raw, err := json.Marshal(params)
	if err != nil {
		return &Error{Method: method, Class: Fatal, Attempts: 1,
			Err: fmt.Errorf("encode params: %w", err)}
	}
	env := requestHead(method, raw)
	attempts := 1
	if c.Retry.enabled() {
		attempts = c.Retry.MaxAttempts
	}
	var last *Error
	lastEp := 0
	for attempt := 1; attempt <= attempts; attempt++ {
		url, epIdx := c.pickEndpoint()
		lastEp = epIdx
		last = c.callOnce(method, url, env, result)
		// The transport may still hold this attempt's body after an
		// error, so a retry appends its id to a copy.
		env = env[:len(env):len(env)]
		c.endpointResult(epIdx, last != nil && last.Class == Transient)
		if last == nil {
			c.traceQuery(method, -1, attempt, epIdx)
			return nil
		}
		last.Attempts = attempt
		if last.Class != Transient || attempt == attempts {
			break
		}
		c.Retry.sleep(c.Retry.backoff(attempt, c.jitterU()))
	}
	c.traceQuery(method, int64(last.Class), last.Attempts, lastEp)
	return last
}

// requestHead writes the JSON-RPC request envelope around params up to
// its id, which each attempt appends with the closing brace; the spare
// capacity fits any int64. The bytes are those json.Marshal writes for
// rpcRequest: the method constants need no escaping, and params from
// json.Marshal are already compact and HTML-escaped, so RawMessage's
// re-compaction would change nothing.
func requestHead(method string, params []byte) []byte {
	const maxTail = len(`-9223372036854775808}`)
	b := make([]byte, 0, len(`{"jsonrpc":"2.0","method":"","params":,"id":`)+len(method)+len(params)+maxTail)
	b = append(b, `{"jsonrpc":"2.0","method":"`...)
	b = append(b, method...)
	b = append(b, `","params":`...)
	b = append(b, params...)
	return append(b, `,"id":`...)
}

// traceQuery emits one paws-query record for a completed call; class
// is -1 on success, the ErrorClass otherwise. With an endpoint list
// configured the record grows a fourth arg: the endpoint index that
// served the final attempt (0 = primary).
func (c *Client) traceQuery(method string, class int64, attempts, endpoint int) {
	if c.Trace == nil {
		return
	}
	var t int64
	if c.TraceNow != nil {
		t = c.TraceNow().UnixNano()
	} else {
		t = time.Now().UnixNano()
	}
	rec := trace.Record{T: t, AP: c.TraceAP, Kind: trace.KindPAWSQuery,
		N: 3, Args: [trace.MaxArgs]int64{methodCode(method), class, int64(attempts)}}
	if len(c.Endpoints) > 0 {
		rec.N = 4
		rec.Args[3] = int64(endpoint)
	}
	c.Trace.Record(rec)
}

// callOnce performs a single HTTP exchange against url, sending env,
// the request envelope up to its id. It returns nil on success and a
// classified *Error otherwise.
func (c *Client) callOnce(method, url string, env []byte, result any) *Error {
	fail := func(class ErrorClass, err error) *Error {
		return &Error{Method: method, Class: class, Err: err}
	}
	body := append(strconv.AppendInt(env, atomic.AddInt64(&c.nextID, 1), 10), '}')
	hc := c.HTTPClient
	if hc == nil {
		hc = defaultHTTPClient
	}
	ctx := context.Background()
	if c.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.CallTimeout)
		defer cancel()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fail(Fatal, fmt.Errorf("build request: %w", err))
	}
	httpReq.Header["Content-Type"] = jsonContentType
	httpResp, err := hc.Do(httpReq)
	if err != nil {
		// Network-level failure: connection refused/reset, timeout.
		return fail(Transient, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		class := Fatal
		if httpResp.StatusCode >= 500 {
			class = Transient
		}
		// Drain (bounded) so the connection can be reused.
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, maxResponseBytes))
		return fail(class, fmt.Errorf("HTTP %d", httpResp.StatusCode))
	}
	// The exact value, which paws.Server sends, skips ParseMediaType's
	// parameter map.
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/json" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
			// A proxy error page or garbage endpoint; retryable because
			// intermediaries come and go.
			return fail(Transient, fmt.Errorf("non-JSON content type %q", ct))
		}
	}
	// The body is read into a pooled buffer; the decoded result owns
	// every byte it keeps, so the buffer goes back once decoded.
	bb := bufPool.Get().(*bytes.Buffer)
	bb.Reset()
	defer bufPool.Put(bb)
	if _, err := bb.ReadFrom(io.LimitReader(httpResp.Body, maxResponseBytes+1)); err != nil {
		return fail(Transient, fmt.Errorf("read response: %w", err))
	}
	if bb.Len() > maxResponseBytes {
		return fail(Transient, fmt.Errorf("response exceeds %d bytes", maxResponseBytes))
	}
	return decodeRPCResponse(method, bb.Bytes(), result)
}

// decodeRPCResponse parses a JSON-RPC response body into result, which
// it zeroes first: a retry reuses one result, and nothing a rejected
// attempt decoded may leak into a later attempt's answer. It is the
// parsing surface FuzzParse exercises: arbitrary bytes must yield
// either a nil error or a classified *Error, never a panic.
//
// A getSpectrum result, the fleet's hot path, is decoded in one strict
// pass of the scanner (scan.go); a body outside the scanner's subset,
// and every other result type, takes the two-step encoding/json
// decode, the reference FuzzClientDecode compares the scanner with.
// Neither keeps a reference into body.
func decodeRPCResponse(method string, body []byte, result any) *Error {
	if out, ok := result.(*AvailSpectrumResp); ok {
		sc := scanPool.Get().(*scanner)
		ok = sc.spectrumResp(body, out)
		sc.b = nil
		scanPool.Put(sc)
		if ok {
			return nil
		}
	}
	var resp rpcResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		// Malformed or truncated JSON: classically a torn connection
		// or a mid-failover proxy — retryable.
		return &Error{Method: method, Class: Transient,
			Err: fmt.Errorf("decode response: %w", err)}
	}
	if resp.Error != nil {
		return &Error{Method: method, Class: classifyRPC(resp.Error), Err: resp.Error}
	}
	if result != nil {
		reflect.ValueOf(result).Elem().SetZero()
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return &Error{Method: method, Class: Transient,
				Err: fmt.Errorf("decode result: %w", err)}
		}
	}
	return nil
}

// Init performs the INIT handshake and returns the database ruleset.
func (c *Client) Init(location geo.Point) (InitResp, error) {
	var out InitResp
	err := c.call(MethodInit, InitReq{DeviceDesc: c.Device, Location: ToGeo(location)}, &out)
	return out, err
}

// Register registers this fixed device with the database.
func (c *Client) Register(location geo.Point, owner string) (RegisterResp, error) {
	var out RegisterResp
	err := c.call(MethodRegister, RegisterReq{
		DeviceDesc: c.Device, Location: ToGeo(location), Owner: owner,
	}, &out)
	return out, err
}

// GetSpectrum queries available spectrum at the given location and
// antenna height.
func (c *Client) GetSpectrum(location geo.Point, antennaHeightM float64) (AvailSpectrumResp, error) {
	var out AvailSpectrumResp
	err := c.call(MethodGetSpectrum, AvailSpectrumReq{
		DeviceDesc:     c.Device,
		Location:       ToGeo(location),
		AntennaHeightM: antennaHeightM,
	}, &out)
	return out, err
}

// NotifyUse reports the spectrum this device is transmitting in. An
// empty spectra list is the cessation report a vacating AP sends on
// shutdown.
func (c *Client) NotifyUse(location geo.Point, spectra []FrequencyRange) error {
	return c.call(MethodNotifyUse, NotifyUseReq{
		DeviceDesc: c.Device, Location: ToGeo(location), Spectra: spectra,
	}, &NotifyUseResp{})
}
