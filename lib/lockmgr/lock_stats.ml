type t = {
  mutable requests : int;
  mutable immediate_grants : int;
  mutable waits : int;
  mutable conversions : int;
  mutable conflict_tests : int;
  mutable releases : int;
  mutable escalations : int;
  mutable deescalations : int;
  mutable deadlocks : int;
  mutable deadlock_visits : int;
  mutable victim_aborts : int;
  mutable timeout_aborts : int;
}

let create () =
  { requests = 0; immediate_grants = 0; waits = 0; conversions = 0;
    conflict_tests = 0; releases = 0; escalations = 0; deescalations = 0;
    deadlocks = 0; deadlock_visits = 0; victim_aborts = 0; timeout_aborts = 0 }

let reset stats =
  stats.requests <- 0;
  stats.immediate_grants <- 0;
  stats.waits <- 0;
  stats.conversions <- 0;
  stats.conflict_tests <- 0;
  stats.releases <- 0;
  stats.escalations <- 0;
  stats.deescalations <- 0;
  stats.deadlocks <- 0;
  stats.deadlock_visits <- 0;
  stats.victim_aborts <- 0;
  stats.timeout_aborts <- 0

let copy stats =
  { requests = stats.requests; immediate_grants = stats.immediate_grants;
    waits = stats.waits; conversions = stats.conversions;
    conflict_tests = stats.conflict_tests; releases = stats.releases;
    escalations = stats.escalations; deescalations = stats.deescalations;
    deadlocks = stats.deadlocks; deadlock_visits = stats.deadlock_visits;
    victim_aborts = stats.victim_aborts;
    timeout_aborts = stats.timeout_aborts }

let add a b =
  { requests = a.requests + b.requests;
    immediate_grants = a.immediate_grants + b.immediate_grants;
    waits = a.waits + b.waits; conversions = a.conversions + b.conversions;
    conflict_tests = a.conflict_tests + b.conflict_tests;
    releases = a.releases + b.releases;
    escalations = a.escalations + b.escalations;
    deescalations = a.deescalations + b.deescalations;
    deadlocks = a.deadlocks + b.deadlocks;
    deadlock_visits = a.deadlock_visits + b.deadlock_visits;
    victim_aborts = a.victim_aborts + b.victim_aborts;
    timeout_aborts = a.timeout_aborts + b.timeout_aborts }

let row stats =
  [ ("requests", float_of_int stats.requests);
    ("immediate_grants", float_of_int stats.immediate_grants);
    ("waits", float_of_int stats.waits);
    ("conversions", float_of_int stats.conversions);
    ("conflict_tests", float_of_int stats.conflict_tests);
    ("releases", float_of_int stats.releases);
    ("escalations", float_of_int stats.escalations);
    ("deescalations", float_of_int stats.deescalations);
    ("deadlocks", float_of_int stats.deadlocks);
    ("deadlock_visits", float_of_int stats.deadlock_visits);
    ("victim_aborts", float_of_int stats.victim_aborts);
    ("timeout_aborts", float_of_int stats.timeout_aborts) ]

let pp formatter stats =
  Format.fprintf formatter
    "requests %d, immediate %d, waits %d, conversions %d, conflict tests %d, \
     releases %d, escalations %d, de-escalations %d, deadlocks %d, deadlock \
     visits %d, victim aborts %d, timeout aborts %d"
    stats.requests stats.immediate_grants stats.waits stats.conversions
    stats.conflict_tests stats.releases stats.escalations stats.deescalations
    stats.deadlocks stats.deadlock_visits stats.victim_aborts
    stats.timeout_aborts
