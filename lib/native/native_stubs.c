/* C side of the native Ion tier: executable-memory management and the
 * single call gate into generated code.
 *
 * W^X discipline lives here: pages are mapped RW (never executable),
 * filled from an OCaml buffer, then flipped to RX with mprotect; a
 * recycled page goes RX -> RW -> RX around its refill.  There is no code
 * path that yields a writable+executable mapping.
 *
 * Generated code follows a minimal contract: it receives the register
 * file pointer in %rdi and the realm heap's mirror descriptor in %rsi
 * (SysV first and second arguments), clobbers only caller-saved
 * registers other than those two, touches no stack beyond its own return
 * address, and returns a packed (lir_pc << 4) | reason exit code in
 * %rax.  That makes the call gate a plain C function-pointer call.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && !defined(_WIN32)
#define JB_NATIVE 1
#include <sys/mman.h>
#include <unistd.h>
#endif

CAMLprim value jb_native_available(value unit)
{
  (void)unit;
#ifdef JB_NATIVE
  return Val_true;
#else
  return Val_false;
#endif
}

CAMLprim value jb_page_size(value unit)
{
  (void)unit;
#ifdef JB_NATIVE
  return Val_long(sysconf(_SC_PAGESIZE));
#else
  return Val_long(4096);
#endif
}

/* Map [size] bytes anonymous RW.  Returns the address, or 0 on failure. */
CAMLprim value jb_map_rw(value size)
{
#ifdef JB_NATIVE
  void *p = mmap(NULL, Long_val(size), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return caml_copy_nativeint(0);
  return caml_copy_nativeint((intnat)p);
#else
  (void)size;
  return caml_copy_nativeint(0);
#endif
}

/* Copy [len] bytes of emitted code into a still-RW mapping. */
CAMLprim value jb_fill(value addr, value code, value len)
{
#ifdef JB_NATIVE
  memcpy((void *)Nativeint_val(addr), Bytes_val(code), Long_val(len));
#else
  (void)addr; (void)code; (void)len;
#endif
  return Val_unit;
}

/* Flip a filled mapping to RX.  Never PROT_WRITE|PROT_EXEC. */
CAMLprim value jb_protect_rx(value addr, value size)
{
#ifdef JB_NATIVE
  return Val_bool(mprotect((void *)Nativeint_val(addr), Long_val(size),
                           PROT_READ | PROT_EXEC) == 0);
#else
  (void)addr; (void)size;
  return Val_false;
#endif
}

/* Flip a recycled RX mapping back to RW for a refill.  Never
 * PROT_WRITE|PROT_EXEC: the page stops being executable first. */
CAMLprim value jb_protect_rw(value addr, value size)
{
#ifdef JB_NATIVE
  return Val_bool(mprotect((void *)Nativeint_val(addr), Long_val(size),
                           PROT_READ | PROT_WRITE) == 0);
#else
  (void)addr; (void)size;
  return Val_false;
#endif
}

CAMLprim value jb_unmap(value addr, value size)
{
#ifdef JB_NATIVE
  munmap((void *)Nativeint_val(addr), Long_val(size));
#else
  (void)addr; (void)size;
#endif
  return Val_unit;
}

/* Enter generated code at [base + off] with the register file and the
 * heap descriptor as its arguments.  The packed exit code fits
 * comfortably in an OCaml immediate (pc is bounded by the LIR length). */
CAMLprim value jb_native_call(value base, value off, value regs, value heap)
{
#ifdef JB_NATIVE
  int64_t (*fn)(int64_t *, int64_t *) =
      (int64_t (*)(int64_t *, int64_t *))((char *)Nativeint_val(base) + Long_val(off));
  return Val_long(fn((int64_t *)Caml_ba_data_val(regs), (int64_t *)Caml_ba_data_val(heap)));
#else
  (void)base; (void)off; (void)regs; (void)heap;
  return Val_long(-1);
#endif
}
