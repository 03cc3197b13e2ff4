package shard

import (
	"time"

	"sacga/internal/ga"
	"sacga/internal/search"
)

// The wire protocol. One request/reply pair per replica per epoch:
//
//	coordinator → worker: Request  (replica config + checkpoint value)
//	worker → coordinator: Heartbeat*  (empty frames: liveness while the step runs)
//	worker → coordinator: Reply    (new checkpoint value + accounting)
//
// Requests are self-contained in what they mean: a worker holds NO replica
// state between them, only a cache of built problems and the gob stream
// state of its connection. That is the whole fault model: any request can
// be replayed against any worker process, so the coordinator recovers from
// a killed, wedged or corrupting worker by respawning one and re-sending
// the last authoritative checkpoint.
//
// Payloads are values on one persistent gob stream per direction per
// connection (fleet.Codec): type descriptors cross once per connection,
// and a checkpoint is just a field of the message, not a second sealed
// stream inside it. A respawn or redial starts fresh streams on both
// sides, so stream state never outlives the connection it describes. The
// frame CRC is the integrity seal in transit; the sealed
// search.SaveCheckpoint form is for disk only.

// Request asks a worker to advance one replica by one generation — or, when
// Init is set, to create its generation-zero state.
type Request struct {
	// Replica is the replica index; echoed in the Reply so a desynced
	// stream is detected, and used to label errors.
	Replica int
	// Epoch is the coordinator epoch this step belongs to (the number of
	// completed epochs), echoed in the Reply.
	Epoch int
	// Attempt numbers the retries of this (Replica, Epoch) step, 0-based.
	// Purely diagnostic — attempts are deterministic replays.
	Attempt int
	// Init, when set, asks for engine initialization instead of a step:
	// the reply checkpoint is the seeded, evaluated generation 0.
	Init bool
	// Algo is the engine registry name to instantiate.
	Algo string
	// Spec identifies the problem; the worker rebuilds it through its
	// WorkerConfig.Build hook. Opaque to this package.
	Spec string
	// Opts is the replica's full configuration, pre-derived by the
	// coordinator with sched.ReplicaOptions so worker-side replicas are
	// configured byte-identically to in-process ones.
	Opts WireOptions
	// HeartbeatEvery, when positive, overrides the worker's configured
	// heartbeat period for this step (Params.HeartbeatEvery shipped along,
	// so one knob tunes both sides of the liveness machinery). Ignored by
	// workers whose configuration disables heartbeats outright.
	HeartbeatEvery time.Duration
	// Ckpt is the replica's checkpoint to restore before stepping. Nil
	// when Init is set.
	Ckpt *search.Checkpoint
}

// Reply is a worker's answer to one Request.
type Reply struct {
	// Replica and Epoch echo the request.
	Replica int
	Epoch   int
	// Ckpt is the replica's new checkpoint — taken after the step even
	// when Err is set, because engines complete their generation before
	// reporting a fault (the quarantine contract): the coordinator adopts
	// it before retrying, exactly like the in-process scheduler retrying a
	// quarantining engine. Nil only when the engine could not be built or
	// restored at all, and then Err is set: a clean reply without one is a
	// transport fault.
	Ckpt *search.Checkpoint
	// Evals is the replica's cumulative evaluation count (engine Evals(),
	// which spans restore boundaries). The coordinator sums these for the
	// ensemble budget.
	Evals int64
	// Gen is the replica's generation count after the step.
	Gen int
	// Done reports the replica has consumed its generation budget.
	Done bool
	// Err carries the step's error text ("" when clean). String, not
	// error: gob cannot ship arbitrary error types, and the coordinator
	// only needs the message for its drop report.
	Err string
}

// WireOptions is the gob-safe projection of search.Options: the fields a
// replica needs, minus the ones that must not cross a process boundary —
// MaxEvals (the budget belongs to the coordinator; children never consult
// the shared counter), Pool (process-local) and StepTimeout (the
// coordinator's lease replaces the in-process watchdog).
//
// Extra rides as an interface: a non-nil extension struct's concrete type
// must be gob-registered in BOTH processes (register it from an init in
// the package that defines it — coordinator and worker normally run the
// same binary, so one call covers both).
type WireOptions struct {
	PopSize     int
	Generations int
	Seed        int64
	Workers     int
	Ops         ga.Operators
	Initial     []search.IndividualSnap
	Extra       any
}

// ToWire projects opts into wire form. The Initial population is
// deep-snapped; SnapPopulation/UnsnapPopulation round-trip floats exactly,
// so a shipped seed population is bit-identical to a local one.
func ToWire(opts search.Options) WireOptions {
	return WireOptions{
		PopSize:     opts.PopSize,
		Generations: opts.Generations,
		Seed:        opts.Seed,
		Workers:     opts.Workers,
		Ops:         opts.Ops,
		Initial:     search.SnapPopulation(opts.Initial),
		Extra:       opts.Extra,
	}
}

// Options rebuilds the search.Options a worker hands its engine.
func (w WireOptions) Options() search.Options {
	var initial ga.Population
	if len(w.Initial) > 0 {
		initial = search.UnsnapPopulation(w.Initial)
	}
	return search.Options{
		PopSize:     w.PopSize,
		Generations: w.Generations,
		Seed:        w.Seed,
		Workers:     w.Workers,
		Ops:         w.Ops,
		Initial:     initial,
		Extra:       w.Extra,
	}
}
