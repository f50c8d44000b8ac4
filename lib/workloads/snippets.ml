let barrier_decls =
  {|var bar_count = 0;
var bar_gen = 0;
lock bar_lock;
|}

let barrier_fn =
  {|fn barrier(n) {
  var my_gen = 0;
  sync (bar_lock) {
    bar_count = bar_count + 1;
    my_gen = bar_gen;
    if (bar_count == n) {
      bar_count = 0;
      bar_gen = bar_gen + 1;
    }
  }
  var done = 0;
  while (done == 0) {
    yield;
    sync (bar_lock) {
      if (bar_gen != my_gen) {
        done = 1;
      }
    }
  }
}
|}
