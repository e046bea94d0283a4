type cve =
  | CVE_2019_17026
  | CVE_2019_9810
  | CVE_2019_9791
  | CVE_2019_11707
  | CVE_2019_9792
  | CVE_2019_9795
  | CVE_2019_9813
  | CVE_2020_26952

let all =
  [
    CVE_2019_17026;
    CVE_2019_9810;
    CVE_2019_9791;
    CVE_2019_11707;
    CVE_2019_9792;
    CVE_2019_9795;
    CVE_2019_9813;
    CVE_2020_26952;
  ]

let cve_name = function
  | CVE_2019_17026 -> "CVE-2019-17026"
  | CVE_2019_9810 -> "CVE-2019-9810"
  | CVE_2019_9791 -> "CVE-2019-9791"
  | CVE_2019_11707 -> "CVE-2019-11707"
  | CVE_2019_9792 -> "CVE-2019-9792"
  | CVE_2019_9795 -> "CVE-2019-9795"
  | CVE_2019_9813 -> "CVE-2019-9813"
  | CVE_2020_26952 -> "CVE-2020-26952"

let cve_of_name name = List.find_opt (fun c -> String.equal (cve_name c) name) all

type t = { active : cve list }

let none = { active = [] }

let make active = { active }

let is_active t cve = List.mem cve t.active

