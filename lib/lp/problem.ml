(* Linear-program description, generic in the coefficient field.

   Conventions: every variable is nonnegative; constraints are sparse rows
   [terms rel rhs] with [terms] a list of (variable index, coefficient).
   This is exactly the shape of the paper's systems (1), (2), (3) and (5):
   all [α] fractions and the flow objective [F] are nonnegative. *)

type relation = Le | Ge | Eq

type direction = Minimize | Maximize

type 'f constr = {
  terms : (int * 'f) list;
  rel : relation;
  rhs : 'f;
}

(* Names exist only to be printed ([pp], the oracle's violation
   messages), so a problem carries functions that make them on demand:
   formulations build LPs on every probe and never read a name. *)
type names = {
  var_name : int -> string;
  constr_name : int -> string; (* by constraint index, in problem order *)
}

type 'f t = {
  num_vars : int;
  direction : direction;
  objective : (int * 'f) list;
  constraints : 'f constr list;
  names : names;
}

let default_names =
  { var_name = (fun v -> "x" ^ string_of_int v); constr_name = (fun _ -> "") }

let var_name p v = p.names.var_name v
let constr_name p i = p.names.constr_name i

let pp_relation fmt = function
  | Le -> Format.pp_print_string fmt "<="
  | Ge -> Format.pp_print_string fmt ">="
  | Eq -> Format.pp_print_string fmt "="

(* Imperative builder: formulation code allocates variables one by one and
   accumulates constraints, then seals the problem with its [names]
   (by default x0, x1, … and unnamed constraints). *)
module Builder = struct
  type 'f state = {
    mutable next_var : int;
    mutable constrs : 'f constr list; (* reversed *)
    mutable obj : (int * 'f) list;
    mutable dir : direction;
  }

  let create () = { next_var = 0; constrs = []; obj = []; dir = Minimize }

  let fresh_var st =
    let v = st.next_var in
    st.next_var <- v + 1;
    v

  let add_constr st terms rel rhs = st.constrs <- { terms; rel; rhs } :: st.constrs

  let set_objective st dir obj =
    st.dir <- dir;
    st.obj <- obj

  let finish ?(names = default_names) st =
    {
      num_vars = st.next_var;
      direction = st.dir;
      objective = st.obj;
      constraints = List.rev st.constrs;
      names;
    }
end

let num_constraints p = List.length p.constraints

(* Change the coefficient field (e.g. exact rationals to floats for the
   accelerated feasibility pre-checks). *)
let map f p =
  {
    num_vars = p.num_vars;
    direction = p.direction;
    objective = List.map (fun (v, c) -> (v, f c)) p.objective;
    constraints =
      List.map
        (fun c ->
          { c with terms = List.map (fun (v, k) -> (v, f k)) c.terms; rhs = f c.rhs })
        p.constraints;
    names = p.names;
  }

let pp pp_coeff fmt p =
  let pp_terms fmt terms =
    Format.pp_print_list
      ~pp_sep:(fun f () -> Format.fprintf f "@ + ")
      (fun f (v, c) -> Format.fprintf f "%a·%s" pp_coeff c (var_name p v))
      fmt terms
  in
  Format.fprintf fmt "@[<v>%s %a@,subject to:@,"
    (match p.direction with Minimize -> "minimize" | Maximize -> "maximize")
    pp_terms p.objective;
  List.iteri
    (fun i c ->
      Format.fprintf fmt "  @[%s: %a %a %a@]@," (constr_name p i) pp_terms c.terms
        pp_relation c.rel pp_coeff c.rhs)
    p.constraints;
  Format.fprintf fmt "@]"
