(* Random well-formed minic programs for the fuzz and profiler tests:
   one [main] that declares every variable up front, with guarded
   division, masked array indices and bounded loops, so a program runs
   to completion or stops on a clean [Runtime_error]. *)

open Ba_minic

(* a small pool of variable names per function; generated programs
   declare all of them up front so any reference is valid *)
let var_names = [| "a"; "b"; "c"; "d"; "e" |]
let arr_names = [| "xs"; "ys" |]

let gen_expr rng ~depth =
  let rec go depth =
    if depth = 0 then
      match Random.State.int rng 3 with
      | 0 -> Ast.Int (Random.State.int rng 100)
      | 1 -> Ast.Var var_names.(Random.State.int rng (Array.length var_names))
      | _ ->
          Ast.Index
            ( arr_names.(Random.State.int rng (Array.length arr_names)),
              (* keep indices in range by masking *)
              Ast.Binary
                ( Ast.Band,
                  Ast.Var var_names.(Random.State.int rng (Array.length var_names)),
                  Ast.Int 7 ) )
    else
      match Random.State.int rng 8 with
      | 0 -> Ast.Unary (Ast.Neg, go (depth - 1))
      | 1 -> Ast.Unary (Ast.Not, go (depth - 1))
      | 2 | 3 ->
          let ops =
            [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Le; Ast.Eq; Ast.Ne;
               Ast.Band; Ast.Bor; Ast.Bxor; Ast.And; Ast.Or |]
          in
          Ast.Binary
            (ops.(Random.State.int rng (Array.length ops)), go (depth - 1), go (depth - 1))
      | 4 ->
          (* guarded division: divisor forced non-zero *)
          Ast.Binary
            ( (if Random.State.bool rng then Ast.Div else Ast.Mod),
              go (depth - 1),
              Ast.Binary (Ast.Bor, go (depth - 1), Ast.Int 1) )
      | 5 -> Ast.Call ("read", [])
      | _ -> go (depth - 1)
  in
  go depth

let gen_stmts rng ~depth ~length =
  let var () = var_names.(Random.State.int rng (Array.length var_names)) in
  let arr () = arr_names.(Random.State.int rng (Array.length arr_names)) in
  let rec stmts depth length =
    List.init length (fun _ -> stmt depth)
  and stmt depth =
    match (if depth = 0 then Random.State.int rng 4 else Random.State.int rng 8) with
    | 0 -> Ast.Assign (var (), gen_expr rng ~depth:2)
    | 1 ->
        Ast.Store
          (arr (), Ast.Binary (Ast.Band, gen_expr rng ~depth:1, Ast.Int 7),
           gen_expr rng ~depth:2)
    | 2 -> Ast.Print (gen_expr rng ~depth:2)
    | 3 -> Ast.Assign (var (), gen_expr rng ~depth:1)
    | 4 ->
        Ast.If
          (gen_expr rng ~depth:2, stmts (depth - 1) (1 + Random.State.int rng 3),
           if Random.State.bool rng then []
           else stmts (depth - 1) (1 + Random.State.int rng 2))
    | 5 ->
        (* bounded loop: fresh counter pattern via an existing var *)
        let v = var () in
        Ast.If
          ( Ast.Int 1,
            [
              Ast.Assign (v, Ast.Int 0);
              Ast.While
                ( Ast.Binary (Ast.Lt, Ast.Var v, Ast.Int (1 + Random.State.int rng 8)),
                  stmts (depth - 1) (1 + Random.State.int rng 2)
                  @ [ Ast.Assign (v, Ast.Binary (Ast.Add, Ast.Var v, Ast.Int 1)) ] );
            ],
            [] )
    | 6 ->
        Ast.Switch
          ( gen_expr rng ~depth:1,
            List.init (1 + Random.State.int rng 3) (fun i ->
                (i, stmts (depth - 1) 1)),
            stmts (depth - 1) 1 )
    | _ ->
        let v = var () in
        Ast.For
          ( Ast.Assign (v, Ast.Int 0),
            Ast.Binary (Ast.Lt, Ast.Var v, Ast.Int (1 + Random.State.int rng 6)),
            Ast.Assign (v, Ast.Binary (Ast.Add, Ast.Var v, Ast.Int 1)),
            stmts (depth - 1) (1 + Random.State.int rng 2) )
  in
  stmts depth length

let program rng : Ast.program =
  let decls =
    List.map (fun v -> Ast.Decl (v, Ast.Int 0)) (Array.to_list var_names)
    @ List.map
        (fun a -> Ast.Decl (a, Ast.Call ("array", [ Ast.Int 8 ])))
        (Array.to_list arr_names)
  in
  let body = decls @ gen_stmts rng ~depth:3 ~length:(2 + Random.State.int rng 5) in
  [ { Ast.name = "main"; params = []; body } ]
