(** IPv4-style addresses and prefixes.

    Addresses are 32-bit values stored in an OCaml [int]. The simulator
    uses them for hosts, containers, peering routers, and as BGP NLRI.
    Prefixes are (address, length) pairs in canonical form: host bits are
    always zero, enforced by the constructors. *)

type t = private int
(** An address. The [private] representation keeps construction in this
    module so the 32-bit invariant cannot be broken. *)

val of_int : int -> t
(** [of_int v] masks [v] to 32 bits. *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Each octet is masked to 8 bits. *)

val of_string : string -> t
(** Parses dotted-quad notation. Raises [Invalid_argument] on malformed
    input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** [hash a] is [hash_int (to_int a)]. *)

val hash_int : int -> int
(** A non-negative integer mix with well-spread low bits: the hash of
    every table keyed by an address, or by an int built from one. *)

val succ : t -> t
(** Next address, wrapping at 2^32. *)

val offset : t -> int -> t
(** [offset a n] is the address [n] above [a] (mod 2^32). *)

(** {1 Prefixes} *)

type prefix = private { base : t; len : int }
(** A CIDR prefix with host bits cleared. *)

val prefix : t -> int -> prefix
(** [prefix addr len] canonicalizes [addr] to [len] bits. Raises
    [Invalid_argument] unless [0 <= len <= 32]. *)

val prefix_of_string : string -> prefix
(** Parses ["a.b.c.d/len"]. *)

val prefix_to_string : prefix -> string

val prefix_width : prefix -> int
(** Length of [prefix_to_string p]. *)

val put_prefix : Bytes.t -> int -> prefix -> int
(** [put_prefix b pos p] writes [prefix_to_string p] into [b] at [pos]
    and returns the position after it: a key that embeds a prefix is
    built in one [Bytes], without the intermediate string. *)

val compare_prefix : prefix -> prefix -> int
val equal_prefix : prefix -> prefix -> bool

val mask : t -> int -> t
(** [mask a len] clears all but the top [len] bits of [a]: the base of
    the [len]-bit prefix containing [a]. [len] must be in [0, 32]. *)

val contains : prefix -> t -> bool
(** [contains p a] is [true] when [a] falls inside [p]. *)

val subsumes : prefix -> prefix -> bool
(** [subsumes p q] is [true] when every address of [q] is in [p]. *)

val host_in : prefix -> int -> t
(** [host_in p n] is the [n]-th address inside [p]. Raises
    [Invalid_argument] when [n] exceeds the prefix size. *)

val prefix_size : prefix -> int
(** Number of addresses covered (2^(32-len)), saturating at [max_int]. *)
