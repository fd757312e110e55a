"""MiniC abstract syntax tree node definitions.

Plain classes with __slots__; the parser builds these, sema annotates
them (``type`` fields), codegen walks them.
"""


class Node:
    __slots__ = ("line",)

    def __init__(self, line=0):
        self.line = line


# ------------------------------------------------------------------ types


class Type:
    """MiniC types: int, float, pointers to them, and functions."""

    __slots__ = ("kind", "elem")

    def __init__(self, kind, elem=None):
        self.kind = kind  # "int" | "float" | "ptr" | "func" | "void"
        self.elem = elem  # pointee for "ptr"

    def is_int(self):
        return self.kind == "int"

    def is_float(self):
        return self.kind == "float"

    def is_ptr(self):
        return self.kind == "ptr"

    def __eq__(self, other):
        return (
            isinstance(other, Type)
            and self.kind == other.kind
            and self.elem == other.elem
        )

    def __hash__(self):
        return hash((self.kind, self.elem))

    def __repr__(self):
        if self.kind == "ptr":
            return "%r*" % self.elem
        return self.kind


INT = Type("int")
FLOAT = Type("float")
VOID = Type("void")
FUNC = Type("func")
INT_PTR = Type("ptr", INT)
FLOAT_PTR = Type("ptr", FLOAT)


# ------------------------------------------------------------- declarations


class Program(Node):
    __slots__ = ("globals", "functions")

    def __init__(self, globals_, functions, line=0):
        super().__init__(line)
        self.globals = globals_
        self.functions = functions


class GlobalVar(Node):
    __slots__ = ("name", "type", "array_size", "init")

    def __init__(self, name, type_, array_size=None, init=None, line=0):
        super().__init__(line)
        self.name = name
        self.type = type_
        self.array_size = array_size  # None for scalars
        self.init = init  # int, or list of ints for arrays


class Param(Node):
    __slots__ = ("name", "type")

    def __init__(self, name, type_, line=0):
        super().__init__(line)
        self.name = name
        self.type = type_


class Function(Node):
    __slots__ = ("name", "return_type", "params", "body", "locals")

    def __init__(self, name, return_type, params, body, line=0):
        super().__init__(line)
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body
        self.locals = []  # filled by sema: LocalVar list


class LocalVar(Node):
    __slots__ = ("name", "type", "array_size", "offset")

    def __init__(self, name, type_, array_size=None, line=0):
        super().__init__(line)
        self.name = name
        self.type = type_
        self.array_size = array_size
        self.offset = None  # ebp-relative, assigned by sema


# --------------------------------------------------------------- statements


class Block(Node):
    __slots__ = ("statements",)

    def __init__(self, statements, line=0):
        super().__init__(line)
        self.statements = statements


class DeclStmt(Node):
    __slots__ = ("var", "init")

    def __init__(self, var, init, line=0):
        super().__init__(line)
        self.var = var
        self.init = init


class ExprStmt(Node):
    __slots__ = ("expr",)

    def __init__(self, expr, line=0):
        super().__init__(line)
        self.expr = expr


class Assign(Node):
    __slots__ = ("target", "op", "value")

    def __init__(self, target, op, value, line=0):
        super().__init__(line)
        self.target = target  # Var or Index
        self.op = op  # "=", "+=", "-=", "*=", "/="
        self.value = value


class IncDec(Node):
    __slots__ = ("target", "op")

    def __init__(self, target, op, line=0):
        super().__init__(line)
        self.target = target
        self.op = op  # "++" | "--"


class If(Node):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond, then, otherwise, line=0):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Node):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body, line=0):
        super().__init__(line)
        self.cond = cond
        self.body = body


class For(Node):
    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init, cond, step, body, line=0):
        super().__init__(line)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Switch(Node):
    __slots__ = ("value", "cases", "default")

    def __init__(self, value, cases, default, line=0):
        super().__init__(line)
        self.value = value
        self.cases = cases  # list of (int, Block)
        self.default = default  # Block or None


class Return(Node):
    __slots__ = ("value",)

    def __init__(self, value, line=0):
        super().__init__(line)
        self.value = value


class Break(Node):
    __slots__ = ()


class Continue(Node):
    __slots__ = ()


class Print(Node):
    __slots__ = ("value", "kind")

    def __init__(self, value, kind, line=0):
        super().__init__(line)
        self.value = value
        self.kind = kind  # "print" | "putc"


class Exit(Node):
    __slots__ = ("value",)

    def __init__(self, value, line=0):
        super().__init__(line)
        self.value = value


class Spawn(Node):
    """``spawn(&fn, stack_top);`` — start a thread at fn with the given
    stack.  The compiler plants a thread-exit trampoline as the thread
    function's return address."""

    __slots__ = ("fn", "stack")

    def __init__(self, fn, stack, line=0):
        super().__init__(line)
        self.fn = fn
        self.stack = stack


# -------------------------------------------------------------- expressions


class Num(Node):
    __slots__ = ("value", "type")

    def __init__(self, value, line=0):
        super().__init__(line)
        self.value = value
        self.type = INT


class Var(Node):
    __slots__ = ("name", "type", "binding")

    def __init__(self, name, line=0):
        super().__init__(line)
        self.name = name
        self.type = None
        self.binding = None  # LocalVar | Param | GlobalVar (set by sema)


class Index(Node):
    __slots__ = ("base", "index", "type")

    def __init__(self, base, index, line=0):
        super().__init__(line)
        self.base = base  # Var naming an array or pointer
        self.index = index
        self.type = None


class Unary(Node):
    __slots__ = ("op", "operand", "type")

    def __init__(self, op, operand, line=0):
        super().__init__(line)
        self.op = op  # "-", "!", "~"
        self.operand = operand
        self.type = None


class Binary(Node):
    __slots__ = ("op", "left", "right", "type")

    def __init__(self, op, left, right, line=0):
        super().__init__(line)
        self.op = op
        self.left = left
        self.right = right
        self.type = None


class Call(Node):
    __slots__ = ("callee", "args", "type", "indirect")

    def __init__(self, callee, args, line=0):
        super().__init__(line)
        self.callee = callee  # function name (str) or Var for fn pointers
        self.args = args
        self.type = None
        self.indirect = False


class AddrOf(Node):
    __slots__ = ("name", "type")

    def __init__(self, name, line=0):
        super().__init__(line)
        self.name = name  # function name or global array name
        self.type = None


class SigHandler(Node):
    """``sighandler(&fn);`` — install a signal handler."""

    __slots__ = ("fn",)

    def __init__(self, fn, line=0):
        super().__init__(line)
        self.fn = fn


class Alarm(Node):
    """``alarm(n);`` — request a one-shot alarm after n instructions."""

    __slots__ = ("count",)

    def __init__(self, count, line=0):
        super().__init__(line)
        self.count = count


class SigReturn(Node):
    """``sigreturn;`` — return from a signal handler (epilogue + iret)."""

    __slots__ = ()
