(** Injectable optimization-pass bugs, one per modeled CVE.

    Each constructor corresponds to one real IonMonkey/SpiderMonkey CVE
    from the paper's evaluation and names the specific side-effect
    mis-modeling that reproduces its mechanism in our pass pipeline (see
    DESIGN.md §2 for the full mapping). An engine built with
    [Vuln_config.none] is the "patched" engine; activating a CVE makes the
    corresponding pass perform its buggy transformation, after which the
    bundled demonstrator code genuinely corrupts the simulated heap. *)

type cve =
  | CVE_2019_17026
      (** GVN: [setarraylength] treated as not clobbering length loads, so
          a bounds check made stale by [a.length = n] is deduplicated away. *)
  | CVE_2019_9810
      (** GVN: the same dependency-analysis bug as 17026 — the paper notes
          the two CVEs "rely on the same system bug" — exercised by a
          demonstrator with a different code shape. *)
  | CVE_2019_9791
      (** Type analysis: a phi is assumed numeric from its first (forward)
          operand only, so [unboxnumber] guards protecting loop-carried
          values are removed. *)
  | CVE_2019_11707
      (** Bounds-check elimination: accepts any length load of the same
          array as proof, ignoring length mutations (pop/shrink) between
          the compare and the access. *)
  | CVE_2019_9792
      (** LICM: hoists element/length loads out of loops that contain
          stores to the same alias class. *)
  | CVE_2019_9795
      (** Constant folding: folds a [boundscheck] on a constant index
          against the allocation-site length, ignoring runtime shrinks. *)
  | CVE_2019_9813
      (** DCE: removes guards whose value has no uses (bounds checks on
          the store fast path). *)
  | CVE_2020_26952
      (** Sink/store-forwarding: forwards a stored element to a later load
          across calls that may mutate the array. *)

val all : cve list

val cve_name : cve -> string  (** e.g. ["CVE-2019-17026"] *)

val cve_of_name : string -> cve option

type t

val none : t

val make : cve list -> t

val is_active : t -> cve -> bool
