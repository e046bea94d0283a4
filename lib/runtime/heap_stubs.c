/* The address of a bigarray's data, for the heap mirror's page and
 * handle tables: generated code follows these addresses, so the mirror
 * stores them as plain int64 cells. A bigarray's data is malloc'ed
 * outside the OCaml heap and never moves. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <stdint.h>

CAMLprim value jb_bigarray_addr(value ba)
{
  return caml_copy_int64((int64_t)(intptr_t)Caml_ba_data_val(ba));
}
