(** JSON values, with one reader and one writer.

    Every JSON document the repository produces is built as a {!t} and
    rendered by {!to_string}: the daemon's Stats and Telemetry replies,
    the Chrome trace export, the CLI's [--json] output and the bench
    result files.  The same module parses them back — the CLI renders
    `eppi top` and diffs counters for `eppi stats --watch` from the
    parsed replies, and the tests compare parsed values.  Full grammar,
    zero dependencies, no performance ambitions: replies are a few KB.

    The writer has one escaper and no formatting options.  Output is
    compact (no whitespace between tokens); object fields keep their list
    order.  Integral numbers print without a fraction ([3], not [3.0]),
    other finite numbers print with the fewest digits that read back to
    the same float, and NaN and the infinities print as [null], so
    [parse (to_string v) = Ok v] for every value whose numbers are
    finite. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** {1 Writing} *)

val int : int -> t
(** [Num] of an integer; exact up to 2{^53}. *)

val to_string : t -> string
(** Compact rendering.  Strings escape the double quote, backslash,
    newline, carriage return and tab by name and every other byte below
    0x20 as [\u00XX]; all other bytes pass through unchanged. *)

(** {1 Reading} *)

exception Parse_error of string

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace bytes are an error. *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val find : t -> string list -> t option
(** Nested lookup: [find v ["a"; "b"]] is [v.a.b]. *)

val num : t -> float option
val str : t -> string option
val list : t -> t list option
val obj : t -> (string * t) list option
val find_num : t -> string list -> float option
val find_str : t -> string list -> string option

val find_int : t -> string list -> int option
(** [find_num] rounded to the nearest integer. *)
