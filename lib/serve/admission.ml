type config = {
  rate : float;
  burst : int;
}

type t = {
  cfg : config;
  mutable available : float;
  mutable last : float;  (* timestamp of the last refill; nan = never *)
}

let create cfg =
  if cfg.rate <= 0.0 then invalid_arg "Admission.create: rate must be positive";
  if cfg.burst < 1 then invalid_arg "Admission.create: burst must be >= 1";
  { cfg; available = float_of_int cfg.burst; last = Float.nan }

let try_admit t ~now =
  if not (Float.is_nan t.last) then begin
    let elapsed = Float.max 0.0 (now -. t.last) in
    t.available <-
      Float.min (float_of_int t.cfg.burst) (t.available +. (elapsed *. t.cfg.rate))
  end;
  t.last <- now;
  if t.available >= 1.0 then begin
    t.available <- t.available -. 1.0;
    true
  end
  else false

let tokens t = t.available
