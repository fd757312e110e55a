"""MiniC semantic analysis: symbol binding, type checking, frame layout."""

from repro.minicc import ast


class SemaError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class FunctionInfo:
    """Sema results for one function."""

    __slots__ = ("node", "frame_size", "param_offsets")

    def __init__(self, node):
        self.node = node
        self.frame_size = 0
        self.param_offsets = {}


class ProgramInfo:
    """Sema results for the whole program."""

    def __init__(self, program):
        self.program = program
        self.globals = {}  # name -> GlobalVar
        self.functions = {}  # name -> FunctionInfo
        self.uses_indirect_calls = False


class _FunctionChecker:
    def __init__(self, info, func_info):
        self.info = info
        self.func = func_info
        self.scopes = [{}]
        self.loop_depth = 0
        self.frame_offset = 0

    # -------------------------------------------------------------- scopes

    def push_scope(self):
        self.scopes.append({})

    def pop_scope(self):
        self.scopes.pop()

    def declare(self, name, binding, line):
        if name in self.scopes[-1]:
            raise SemaError(line, "redeclaration of %r" % name)
        self.scopes[-1][name] = binding

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return self.info.globals.get(name)

    # ------------------------------------------------------------ checking

    def check(self):
        func = self.func.node
        for i, param in enumerate(func.params):
            if param.type.kind == "void":
                raise SemaError(param.line, "void parameter %r" % param.name)
            self.func.param_offsets[param.name] = 8 + 4 * i
            self.declare(param.name, param, param.line)
        self.check_block(func.body, new_scope=False)

    def check_block(self, block, new_scope=True):
        if new_scope:
            self.push_scope()
        for stmt in block.statements:
            self.check_stmt(stmt)
        if new_scope:
            self.pop_scope()

    def _alloc_local(self, var):
        size = 4 * (var.array_size or 1)
        self.frame_offset += size
        var.offset = -self.frame_offset
        self.func.node.locals.append(var)
        if self.frame_offset > self.func.frame_size:
            self.func.frame_size = self.frame_offset

    def check_stmt(self, stmt):
        if isinstance(stmt, ast.Block):
            self.check_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            var = stmt.var
            if var.type.kind == "void":
                raise SemaError(var.line, "void variable %r" % var.name)
            if var.array_size is not None and var.type.is_ptr():
                raise SemaError(var.line, "array of pointers not supported")
            self._alloc_local(var)
            self.declare(var.name, var, var.line)
            if stmt.init is not None:
                if var.array_size is not None:
                    raise SemaError(var.line, "array initializers are global-only")
                t = self.check_expr(stmt.init)
                self._check_assignable(var.type, t, var.line)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, ast.Assign):
            target_t = self.check_lvalue(stmt.target)
            value_t = self.check_expr(stmt.value)
            if stmt.op in ("*=", "/=") and target_t.is_ptr():
                raise SemaError(stmt.line, "cannot %s a pointer" % stmt.op)
            self._check_assignable(target_t, value_t, stmt.line)
        elif isinstance(stmt, ast.IncDec):
            t = self.check_lvalue(stmt.target)
            if not t.is_int():
                raise SemaError(stmt.line, "++/-- requires an int lvalue")
        elif isinstance(stmt, ast.If):
            self._check_cond(stmt.cond)
            self.check_stmt(stmt.then)
            if stmt.otherwise is not None:
                self.check_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._check_cond(stmt.cond)
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.For):
            self.push_scope()
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                self._check_cond(stmt.cond)
            if stmt.step is not None:
                self.check_stmt(stmt.step)
            self.loop_depth += 1
            self.check_stmt(stmt.body)
            self.loop_depth -= 1
            self.pop_scope()
        elif isinstance(stmt, ast.Switch):
            t = self.check_expr(stmt.value)
            if not t.is_int():
                raise SemaError(stmt.line, "switch value must be int")
            seen = set()
            for value, block in stmt.cases:
                if value in seen:
                    raise SemaError(stmt.line, "duplicate case %d" % value)
                seen.add(value)
                self.loop_depth += 1  # break allowed inside switch
                self.check_block(block)
                self.loop_depth -= 1
            if stmt.default is not None:
                self.loop_depth += 1
                self.check_block(stmt.default)
                self.loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            rt = self.func.node.return_type
            if stmt.value is None:
                if rt.kind != "void":
                    raise SemaError(stmt.line, "missing return value")
            else:
                if rt.kind == "void":
                    raise SemaError(stmt.line, "void function returns a value")
                t = self.check_expr(stmt.value)
                self._check_assignable(rt, t, stmt.line)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                raise SemaError(stmt.line, "break/continue outside loop")
        elif isinstance(stmt, ast.Print):
            self.check_expr(stmt.value)
        elif isinstance(stmt, ast.Exit):
            t = self.check_expr(stmt.value)
            if not t.is_int():
                raise SemaError(stmt.line, "exit() requires an int")
        elif isinstance(stmt, ast.SigHandler):
            t = self.check_expr(stmt.fn)
            if not t.is_int():
                raise SemaError(stmt.line, "sighandler() takes a function address")
        elif isinstance(stmt, ast.Alarm):
            t = self.check_expr(stmt.count)
            if not t.is_int():
                raise SemaError(stmt.line, "alarm() takes an instruction count")
        elif isinstance(stmt, ast.SigReturn):
            pass
        elif isinstance(stmt, ast.Spawn):
            fn_t = self.check_expr(stmt.fn)
            stack_t = self.check_expr(stmt.stack)
            if not fn_t.is_int() or not stack_t.is_int():
                raise SemaError(
                    stmt.line, "spawn() takes a function address and a stack"
                )
        else:
            raise AssertionError("unknown statement %r" % (stmt,))

    def _check_cond(self, cond):
        self.check_expr(cond)

    def _check_assignable(self, target_t, value_t, line):
        if target_t == value_t:
            return
        # int literals flow into float slots (fixed-point constants).
        if target_t.is_float() and value_t.is_int():
            return
        # function addresses are stored in ints
        if target_t.is_int() and value_t.is_int():
            return
        raise SemaError(
            line, "type mismatch: cannot assign %r to %r" % (value_t, target_t)
        )

    # ---------------------------------------------------------- expressions

    def check_lvalue(self, expr):
        if isinstance(expr, ast.Var):
            t = self.check_expr(expr)
            binding = expr.binding
            if isinstance(binding, (ast.GlobalVar, ast.LocalVar)) and (
                binding.array_size is not None
            ):
                raise SemaError(expr.line, "cannot assign to an array")
            return t
        if isinstance(expr, ast.Index):
            return self.check_expr(expr)
        raise SemaError(expr.line, "not an lvalue")

    def check_expr(self, expr):
        if isinstance(expr, ast.Num):
            return ast.INT
        if isinstance(expr, ast.Var):
            binding = self.lookup(expr.name)
            if binding is None:
                raise SemaError(expr.line, "undefined variable %r" % expr.name)
            expr.binding = binding
            t = binding.type
            if (
                isinstance(binding, (ast.GlobalVar, ast.LocalVar))
                and binding.array_size is not None
            ):
                t = ast.Type("ptr", binding.type)  # arrays decay to pointers
            expr.type = t
            return t
        if isinstance(expr, ast.Index):
            base_t = self.check_expr(expr.base)
            if not base_t.is_ptr():
                raise SemaError(expr.line, "indexing a non-array %r" % base_t)
            index_t = self.check_expr(expr.index)
            if not index_t.is_int():
                raise SemaError(expr.line, "array index must be int")
            expr.type = base_t.elem
            return expr.type
        if isinstance(expr, ast.Unary):
            t = self.check_expr(expr.operand)
            if expr.op in ("!", "~") and not t.is_int():
                raise SemaError(expr.line, "%s requires an int" % expr.op)
            if expr.op == "-" and t.is_ptr():
                raise SemaError(expr.line, "cannot negate a pointer")
            expr.type = ast.INT if expr.op in ("!",) else t
            return expr.type
        if isinstance(expr, ast.Binary):
            lt = self.check_expr(expr.left)
            rt = self.check_expr(expr.right)
            op = expr.op
            if op in ("&&", "||"):
                expr.type = ast.INT
                return expr.type
            if op in ("==", "!=", "<", "<=", ">", ">="):
                if lt != rt and not (lt.is_float() and rt.is_int()) and not (
                    rt.is_float() and lt.is_int()
                ):
                    raise SemaError(expr.line, "comparing %r with %r" % (lt, rt))
                expr.type = ast.INT
                return expr.type
            if op in ("%", "<<", ">>", "&", "|", "^"):
                if not (lt.is_int() and rt.is_int()):
                    raise SemaError(expr.line, "%s requires ints" % op)
                expr.type = ast.INT
                return expr.type
            # + - * /
            if lt.is_float() or rt.is_float():
                if not (
                    (lt.is_float() or lt.is_int())
                    and (rt.is_float() or rt.is_int())
                ):
                    raise SemaError(expr.line, "bad float arithmetic")
                expr.type = ast.FLOAT
                return expr.type
            if lt.is_ptr() or rt.is_ptr():
                raise SemaError(expr.line, "pointer arithmetic not supported")
            expr.type = ast.INT
            return expr.type
        if isinstance(expr, ast.Call):
            binding = self.lookup(expr.callee)
            if binding is None and expr.callee in self.info.functions:
                target = self.info.functions[expr.callee].node
                if len(expr.args) != len(target.params):
                    raise SemaError(
                        expr.line,
                        "%s takes %d args, got %d"
                        % (expr.callee, len(target.params), len(expr.args)),
                    )
                for arg, param in zip(expr.args, target.params):
                    at = self.check_expr(arg)
                    self._check_assignable(param.type, at, expr.line)
                expr.type = target.return_type
                expr.indirect = False
                return expr.type
            if binding is not None:
                # Call through a variable holding a function address.
                var = ast.Var(expr.callee, line=expr.line)
                t = self.check_expr(var)
                if not t.is_int():
                    raise SemaError(
                        expr.line, "indirect call through non-int %r" % t
                    )
                expr.indirect = True
                expr.callee = var  # rebind to the checked Var node
                for arg in expr.args:
                    self.check_expr(arg)
                self.info.uses_indirect_calls = True
                expr.type = ast.INT  # indirect calls return int
                return expr.type
            raise SemaError(expr.line, "undefined function %r" % (expr.callee,))
        if isinstance(expr, ast.AddrOf):
            if expr.name in self.info.functions:
                expr.type = ast.INT
                return expr.type
            binding = self.lookup(expr.name)
            if isinstance(binding, ast.GlobalVar) and binding.array_size is not None:
                expr.type = ast.Type("ptr", binding.type)
                return expr.type
            raise SemaError(
                expr.line,
                "& requires a function or global array, got %r" % expr.name,
            )
        raise AssertionError("unknown expression %r" % (expr,))


def analyze(program):
    """Run semantic analysis; returns a :class:`ProgramInfo`."""
    info = ProgramInfo(program)
    for g in program.globals:
        if g.name in info.globals:
            raise SemaError(g.line, "duplicate global %r" % g.name)
        if g.type.kind == "void":
            raise SemaError(g.line, "void global %r" % g.name)
        if g.array_size is not None and g.init is not None:
            if not isinstance(g.init, list):
                raise SemaError(g.line, "array %r needs a {...} initializer" % g.name)
            if len(g.init) > g.array_size:
                raise SemaError(g.line, "too many initializers for %r" % g.name)
        info.globals[g.name] = g
    for f in program.functions:
        if f.name in info.functions or f.name in info.globals:
            raise SemaError(f.line, "duplicate definition %r" % f.name)
        info.functions[f.name] = FunctionInfo(f)
    if "main" not in info.functions:
        raise SemaError(0, "no main() function")
    for func_info in info.functions.values():
        _FunctionChecker(info, func_info).check()
    return info
