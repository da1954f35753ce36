(* Committed digests.  [check ~fixture ~actual lines] compares freshly
   computed [lines] with the committed file [fixture] (relative to test/).
   On a mismatch it writes [lines] to [actual] (in _build/default/test/)
   and fails on the first differing line.  To re-record after an intended
   change of results, copy that file over the fixture. *)
let check ~fixture ~actual lines =
  let expected =
    In_channel.with_open_text fixture In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if lines <> expected then begin
    Out_channel.with_open_text actual (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let rec first_diff = function
      | a :: at, e :: et ->
        if a = e then first_diff (at, et) else Printf.sprintf "%s\n  expected %s" a e
      | a :: _, [] -> a ^ " (not in the fixture)"
      | [], e :: _ -> "missing " ^ e
      | [], [] -> assert false
    in
    Alcotest.failf "records differ from test/%s (see _build/default/test/%s):\n  got %s"
      fixture actual (first_diff (lines, expected))
  end
