(** Engine snapshots and [--resume] recovery orchestration.

    A durability directory ([dlsched serve --wal DIR]) holds [DIR/meta]
    (the engine state at arm time, recovery base before any checkpoint),
    [DIR/snapshot] (the latest checkpoint, atomically replaced) and
    [DIR/wal] (the {!Wal} event log).  Snapshots are line-oriented ASCII —
    rationals in exact {!Numeric.Rat} text, floats in lossless hexadecimal
    — closed by an Adler-32 trailer; they embed the platform in {!Trace}'s
    canonical text form and the engine state as {!Engine.dump} produces
    it.

    Recovery loads the newest base, restores the engine
    ({!Engine.restore}) and replays the WAL tail through the live code
    paths ({!Engine.apply_record}), yielding an engine bit-identical to
    one that never crashed (DESIGN.md §11).

    Checkpoint writes emit a [snapshot.write] span (attributes [seq],
    [bytes] written and [encoded_bytes] newly encoded) and tally
    [wal.snapshots] / [wal.snapshot_bytes] /
    [wal.snapshot_encoded_bytes] in {!Obs.Registry.global}. *)

type handle
(** An armed durability directory: the open WAL writer plus its paths.
    {!close} it when the engine shuts down. *)

val arm : ?snapshot_every:int -> dir:string -> Engine.t -> handle
(** Create [dir] if needed, write [DIR/meta] from the engine's current
    state (encoded from scratch, as {!state_to_string} does), open the
    WAL and arm the engine's durability handle ({!Engine.set_durability},
    shared with {!resume}).  The handle's checkpoints share one memo of
    encoded text, so each encodes only the completed jobs, slices and
    histogram samples added since the last ({!save_file}).  Call on
    a freshly created engine, before any event.  [snapshot_every] > 0
    checkpoints automatically after that many logged records (default [0]:
    checkpoints only on the server's [snapshot] command).
    @raise Invalid_argument if [dir] already holds serving state (resume
    it instead of silently overwriting). *)

val resume :
  ?snapshot_every:int ->
  ?decision_cache:bool ->
  dir:string ->
  clock:Clock.t ->
  policies:(module Online.Sim.POLICY) list ->
  unit ->
  handle * Engine.t
(** Recover: load [DIR/snapshot] (or [DIR/meta] if no checkpoint was ever
    taken), resolve the recorded policy by name from [policies], restore
    the engine, replay the WAL tail (skipping records a lost truncation
    left below the snapshot's seq; truncating any torn tail a mid-append
    crash left), re-arm durability, and {!Engine.rebase} the clock so the
    downtime is excised.  [decision_cache] (default [false]) must match
    the crashed run's setting — like [snapshot_every], it is engine
    configuration, not logged state — or the replayed cache counters
    diverge from the uninterrupted run's.
    @raise Invalid_argument on a missing/corrupt directory, a checksum
    mismatch, or an unknown policy name. *)

val close : handle -> unit

val dir : handle -> string

(** {1 Snapshot files}

    Exposed for tests and tooling; [arm]/[resume] are the normal entry
    points. *)

val state_to_string :
  seq:int -> platform:Gripps.Workload.platform -> Engine.state -> string
(** Canonical text form (checksum trailer included): {!save_file}'s
    writer with an empty memo.  Bit-identity of two engine states can be
    checked by comparing these strings.
    @raise Invalid_argument on state that cannot round-trip (a request id
    or metric name containing whitespace). *)

val state_of_string : string -> int * Gripps.Workload.platform * Engine.state
(** Inverse of {!state_to_string}.
    @raise Invalid_argument with a line-numbered message on malformed
    input or a checksum mismatch. *)

val save_file : ?memo:Codec.memo -> string -> seq:int -> Engine.t -> unit
(** Serialize {!Engine.dump} of the engine and write it atomically: temp
    file, [fsync], rename, directory [fsync].  The text is streamed to
    the temp file in pieces, never held whole, and its checksum combined
    from the pieces' sums.  [memo] (default: a fresh one) holds the text
    of earlier writes' append-only runs: the prefix of completed jobs,
    the slices while the last memoized one is still physically at its
    place in the dump, and each histogram's samples.  A write reuses
    what still stands, encodes the rest and extends the memo; the bytes
    are {!state_to_string}'s either way.  Pass a memo only across dumps
    of one engine, as {!arm} and {!resume} do: its reuse conditions hold
    only there.  Dump, encoding and write all run inside one
    [snapshot.write] span. *)

val load_file : string -> int * Gripps.Workload.platform * Engine.state

val meta_file : string -> string
val snapshot_file : string -> string
val wal_file : string -> string
