type attempt = {
  label : string;
  reason : string;
  detail : string;
  elapsed : float;
  retry : int;
}

let c_attempts = Obs.Counter.get "resilience.attempts"
let c_contained = Obs.Counter.get "resilience.contained_exceptions"
let c_degraded = Obs.Counter.get "resilience.degraded_runs"
let c_retries = Obs.Counter.get "resilience.retries"

let attempt_to_json a =
  Obs.Json.Obj
    [
      ("label", Obs.Json.String a.label);
      ("reason", Obs.Json.String a.reason);
      ("detail", Obs.Json.String a.detail);
      ("elapsed_s", Obs.Json.Float a.elapsed);
      ("retry", Obs.Json.Int a.retry);
    ]

let pp_attempt ppf a =
  Format.fprintf ppf "%s%s: %s%s [%.2fs]" a.label
    (if a.retry = 0 then "" else Printf.sprintf " (retry %d)" a.retry)
    a.reason
    (if a.detail = "" then "" else Printf.sprintf " (%s)" a.detail)
    a.elapsed

type 'a step = {
  slabel : string;
  budget : float option;
  retries : int;
  retry_on : string list;
  run : Deadline.t -> ('a, string * string) result;
}

type 'a outcome = { value : 'a; trail : attempt list }

let degraded o = o.trail <> []

let run ~deadline steps =
  let trail = ref [] in
  let rec go = function
    | [] -> Error (List.rev !trail)
    | s :: rest ->
        (* [try_n] is how many tries of this rung already failed; a
           transient failure class retries the same rung (same budget,
           deterministically) up to [s.retries] times before the cascade
           falls through to the next rung. *)
        let rec try_step try_n =
          Obs.Counter.incr c_attempts;
          let t0 = Obs.Clock.wall () in
          let fail reason detail =
            trail :=
              { label = s.slabel; reason; detail;
                elapsed = Obs.Clock.wall () -. t0; retry = try_n }
              :: !trail;
            let retryable =
              try_n < s.retries
              && List.mem reason s.retry_on
              && not (Deadline.expired deadline)
            in
            (* Degradation transitions and retries are events, so the
               cascade's fall-through is visible on the timeline and in
               the NDJSON stream alike. *)
            if Obs.recording ~level:Obs.Log.Warn () then
              Obs.emit ~level:Obs.Log.Warn ~cat:"cascade"
                (if retryable then "cascade.retry" else "cascade.degraded")
                [
                  ("attempt", Obs.Json.String s.slabel);
                  ("reason", Obs.Json.String reason);
                  ("detail", Obs.Json.String detail);
                  ("retry", Obs.Json.Int try_n);
                ];
            if retryable then begin
              Obs.Counter.incr c_retries;
              try_step (try_n + 1)
            end
            else go rest
          in
          (* An expired cascade deadline skips intermediate attempts but
             never the terminal fallback: the last step always runs (with
             the already-expired sub-deadline, so cooperative subsystems
             degrade immediately) — that is what guarantees a result. *)
          if rest <> [] && Deadline.expired deadline then
            fail "timeout" "cascade deadline expired before the attempt started"
          else
            let sub =
              match s.budget with
              | None -> deadline
              | Some b -> Deadline.clip deadline ~budget:b
            in
            let attempt () =
              if Obs.recording () then
                Obs.emit ~cat:"cascade" "cascade.attempt"
                  [
                    ("attempt", Obs.Json.String s.slabel);
                    ("retry", Obs.Json.Int try_n);
                  ];
              Obs.span ~cat:"cascade" "cascade.attempt"
                ~args:[ ("attempt", Obs.Json.String s.slabel) ]
                (fun () -> s.run sub)
            in
            match attempt () with
            | Ok value ->
                if !trail <> [] then Obs.Counter.incr c_degraded;
                Ok { value; trail = List.rev !trail }
            | Error (reason, detail) -> fail reason detail
            | exception Deadline.Expired phase ->
                fail "timeout" ("deadline expired in " ^ phase)
            | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
            | exception e ->
                Obs.Counter.incr c_contained;
                fail "exception" (Printexc.to_string e)
        in
        try_step 0
  in
  go steps

let backoff k = 0.5 ** float_of_int (max 0 k)
