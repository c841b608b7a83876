(* Wall clock, not [Sys.time]: process CPU time double-counts across domains
   and would misreport solver runtimes the moment multi-start runs under
   --jobs. *)
let wall_clock () = Unix.gettimeofday ()
