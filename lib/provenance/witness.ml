open Coop_trace
module Json = Coop_util.Json

type access = {
  a_tid : int;
  a_seq : int;
  a_loc : Loc.t;
}

type race = {
  r_first : access;
  r_second : access;
  r_first_clock : int;
  r_second_sees : int;
}

type t = Race of race

let pp_access ppf a =
  Format.fprintf ppf "t%d#%d @%a" a.a_tid a.a_seq Loc.pp a.a_loc

let pp ppf (Race r) =
  Format.fprintf ppf "%a clock %d, %a sees %d: unordered" pp_access r.r_first
    r.r_first_clock pp_access r.r_second r.r_second_sees

let schema = "coop-witness/v1"

let access_json a =
  Json.Obj
    [ ("tid", Json.Int a.a_tid); ("seq", Json.Int a.a_seq);
      ("loc", Json.String (Loc.to_string a.a_loc)) ]

let race_json r =
  Json.Obj
    [ ("first", access_json r.r_first); ("second", access_json r.r_second);
      ("first_clock", Json.Int r.r_first_clock);
      ("second_sees", Json.Int r.r_second_sees) ]

let to_json (Race r) = Json.Obj [ ("race", race_json r) ]

type mode =
  | Text
  | Json of string option

let parse_mode s =
  match s with
  | "text" -> Some Text
  | "json" -> Some (Json None)
  | _ ->
      let n = String.length s in
      if n > 5 && String.sub s 0 5 = "json:" then
        Some (Json (Some (String.sub s 5 (n - 5))))
      else None
