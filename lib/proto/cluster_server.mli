(** Protocol front end for a sharded cluster.

    Sits where {!Server} sits for a single store, over a
    {!Worm_cluster.Shard_router}: the cluster vocabulary
    ([Cluster_hello] / [Cluster_read] / [Cluster_read_many] /
    [Cluster_proof_get]) is answered by routing through the partition,
    and plain [Write]s are striped across the shards by the router's
    allocation cursor — a cluster is a drop-in ingest target.

    Each shard also exposes an ordinary {!Server.t} over its serving
    store ({!shard_server}), which is how multiple {!Event_server} loops
    sit over one router: mount one loop per shard, let each batch its
    own stripe's writes, and translate the per-shard acks back to global
    serials with {!Worm_cluster.Shard_router.register_ack}. The
    dispatchers are cached and rebuilt when a failover changes a shard's
    serving store. *)

module Router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof

type t

val create : ?limits:Server.limits -> Router.t -> t
val router : t -> Router.t

val shard_server : t -> int -> Server.t option
(** The per-shard dispatcher over the shard's current serving store, or
    [None] while the shard is fenced (primary dead, mirror not yet
    promoted). Callers on the wire path turn [None] into a
    [Protocol_error]-style refusal — never an exception. *)

val handle : t -> Message.request -> Message.response
(** Pure dispatch of the cluster vocabulary (plus routed [Write]s).
    Single-store reads/audits are refused with [Protocol_error] — they
    belong on a {!shard_server}, where the client knows which SCPU's
    certificates it is verifying against. *)

val handle_bytes : t -> string -> string
(** Decode → refresh shard bounds (before [Cluster_read],
    [Cluster_read_many] and [Cluster_proof_get] only) → dispatch →
    encode; total on adversarial input, like {!Server.handle_bytes}. *)

val encode_response : t -> Message.response -> string
(** Encode through the cluster's encode-once caches: the aggregated
    freshness proof and the cluster hello ack are re-encoded only when
    some signed leaf inside them (a cert or a shard bound record)
    actually changed — decided by physical equality on the records the
    stores hand out, so a heartbeat or failover invalidates the cache
    automatically. Shard-served read responses share one {!Server}
    read memo across all shards. Bytes are identical to
    {!Message.encode_response}. *)
