package lte

import (
	"math/rand"
	"time"

	"cellfi/internal/sim"
)

// RRC connection establishment. A client attaches through the
// contention-based random-access procedure: it transmits a PRACH
// preamble (Msg1), waits for the random-access response (Msg2), sends
// the RRC Connection Request (Msg3) and completes on Connection Setup
// (Msg4). Two clients picking the same preamble in the same RACH
// occasion collide and back off. CellFi leans on exactly this
// machinery: connected clients answer the PDCCH-order solicitations
// that drive the neighbour census, and a vacated cell's clients fall
// back to RRC Idle and must re-attach after the channel returns
// (the 56-second tail of Figure 6).

// RRCState is a client's connection state.
type RRCState int

const (
	// RRCIdle: camped, no connection.
	RRCIdle RRCState = iota
	// RRCConnecting: random access in progress.
	RRCConnecting
	// RRCConnected: SRB established, schedulable.
	RRCConnected
)

func (s RRCState) String() string {
	switch s {
	case RRCIdle:
		return "idle"
	case RRCConnecting:
		return "connecting"
	case RRCConnected:
		return "connected"
	}
	return "?"
}

// Random-access timing (TS 36.331-flavoured defaults).
const (
	// RachPeriod is the PRACH occasion spacing (one per frame).
	RachPeriod = 10 * time.Millisecond
	// RARWindow is how long after Msg1 the response arrives.
	RARWindow = 5 * time.Millisecond
	// Msg3Msg4Delay covers the RRC request/setup exchange.
	Msg3Msg4Delay = 20 * time.Millisecond
	// MaxRachAttempts before the client declares failure and goes
	// back to idle (to retry at the next opportunity).
	MaxRachAttempts = 10
)

// AttachResult reports one completed attach procedure.
type AttachResult struct {
	ClientID int
	Attempts int
	Took     sim.Time
}

// RRCSim runs the contention-based random access of many clients
// against one cell on the event engine. Collisions happen when two
// clients pick the same preamble for the same RACH occasion.
type RRCSim struct {
	eng *sim.Engine
	rng *rand.Rand
	// Preambles is the contention pool size (64 minus dedicated).
	Preambles int
	// OnConnected fires as each client completes.
	OnConnected func(AttachResult)

	states   map[int]RRCState
	attempts map[int]int
	started  map[int]sim.Time
	// pending preamble picks for the upcoming RACH occasion.
	pending map[int]int // clientID -> preamble
}

// NewRRCSim builds the state machine on an engine; the RACH occasion
// ticker starts immediately.
func NewRRCSim(eng *sim.Engine) *RRCSim {
	r := &RRCSim{
		eng:       eng,
		rng:       eng.NewStream("rrc"),
		Preambles: 54, // 64 minus 10 dedicated, a common split
		states:    make(map[int]RRCState),
		attempts:  make(map[int]int),
		started:   make(map[int]sim.Time),
		pending:   make(map[int]int),
	}
	eng.EveryAt(RachPeriod, RachPeriod, r.rachOccasion)
	return r
}

// Connect starts (or restarts) a client's attach procedure.
func (r *RRCSim) Connect(clientID int) {
	if r.states[clientID] == RRCConnected {
		return
	}
	if r.states[clientID] == RRCIdle {
		r.started[clientID] = r.eng.Now()
		r.attempts[clientID] = 0
	}
	r.states[clientID] = RRCConnecting
	r.pickPreamble(clientID)
}

func (r *RRCSim) pickPreamble(clientID int) {
	r.pending[clientID] = r.rng.Intn(r.Preambles)
}

// rachOccasion resolves one PRACH opportunity: clients that picked a
// unique preamble proceed to Msg2-4; clashing clients back off and
// retry at a later occasion.
func (r *RRCSim) rachOccasion() {
	if len(r.pending) == 0 {
		return
	}
	// Count picks per preamble (deterministic iteration by scanning
	// preamble indices, not map order).
	byPreamble := make(map[int][]int)
	maxID := 0
	for id := range r.pending {
		if id > maxID {
			maxID = id
		}
	}
	for id := 0; id <= maxID; id++ {
		p, ok := r.pending[id]
		if !ok {
			continue
		}
		byPreamble[p] = append(byPreamble[p], id)
	}
	for id := 0; id <= maxID; id++ {
		p, ok := r.pending[id]
		if !ok {
			continue
		}
		delete(r.pending, id)
		clientID := id
		r.attempts[clientID]++
		if len(byPreamble[p]) > 1 {
			// Contention: no usable RAR for these clients.
			if r.attempts[clientID] >= MaxRachAttempts {
				r.states[clientID] = RRCIdle
				continue
			}
			// Backoff: retry in 1..4 occasions.
			delay := time.Duration(1+r.rng.Intn(4)) * RachPeriod
			r.eng.After(delay, func() {
				if r.states[clientID] == RRCConnecting {
					r.pickPreamble(clientID)
				}
			})
			continue
		}
		// Unique preamble: Msg2 in the RAR window, then Msg3/Msg4.
		r.eng.After(RARWindow+Msg3Msg4Delay, func() {
			if r.states[clientID] != RRCConnecting {
				return // released mid-procedure
			}
			r.states[clientID] = RRCConnected
			if r.OnConnected != nil {
				r.OnConnected(AttachResult{
					ClientID: clientID,
					Attempts: r.attempts[clientID],
					Took:     r.eng.Now() - r.started[clientID],
				})
			}
		})
	}
}
