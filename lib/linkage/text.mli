(** String comparison primitives for record linkage.

    The classical toolbox of patient-demographic matching: normalization,
    Soundex phonetic codes, Levenshtein edit distance, and the Dice
    coefficient over character bigrams (the similarity the Bloom-filter
    encodings of {!Bloom} approximate). *)

val normalize : string -> string
(** Lowercase, keep letters and digits only. *)

val soundex : string -> string
(** Classic 4-character American Soundex code ("Robert" -> "R163");
    returns ["0000"] for inputs with no letters. *)

val levenshtein : string -> string -> int
(** Edit distance (insertions, deletions, substitutions). *)

val levenshtein_similarity : string -> string -> float
(** 1 - distance / max-length, in [0, 1]; 1.0 for two empty strings. *)

val bigrams : string -> string list
(** Padded character bigrams of the normalized string ("ann" ->
    ["_a"; "an"; "nn"; "n_"]); empty for the empty string. *)

val iter_bigrams : (char -> char -> unit) -> string -> unit
(** [iter_bigrams f s] calls [f a b] on each of [bigrams s], in order,
    without building the strings. *)

val dice : string -> string -> float
(** Dice coefficient of the bigram multisets, in [0, 1]. *)
